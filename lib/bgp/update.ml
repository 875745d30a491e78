type aggregator = { aggregator_asn : Asn.t; sent_at : float; valid : bool }

type t =
  | Announce of {
      prefix : Prefix.t;
      as_path : Asn.t list;
      aggregator : aggregator option;
    }
  | Withdraw of { prefix : Prefix.t }

let prefix = function
  | Announce { prefix; _ } -> prefix
  | Withdraw { prefix } -> prefix

let is_announce = function Announce _ -> true | Withdraw _ -> false

let as_path = function
  | Announce { as_path; _ } -> Some as_path
  | Withdraw _ -> None

let aggregator = function
  | Announce { aggregator; _ } -> aggregator
  | Withdraw _ -> None

let aggregator_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y ->
      Asn.equal x.aggregator_asn y.aggregator_asn
      && Float.equal x.sent_at y.sent_at && Bool.equal x.valid y.valid
  | None, Some _ | Some _, None -> false

(* Single early-exit walk instead of two List.length traversals plus
   for_all2 — this comparison sits on the adj-RIB-out hot path. *)
let rec path_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> Asn.equal x y && path_equal xs ys
  | [], _ :: _ | _ :: _, [] -> false

let equal a b =
  match (a, b) with
  | Announce x, Announce y ->
      Prefix.equal x.prefix y.prefix
      && path_equal x.as_path y.as_path
      && aggregator_equal x.aggregator y.aggregator
  | Withdraw x, Withdraw y -> Prefix.equal x.prefix y.prefix
  | Announce _, Withdraw _ | Withdraw _, Announce _ -> false

let pp fmt = function
  | Announce { prefix; as_path; _ } ->
      Format.fprintf fmt "A %a [%a]" Prefix.pp prefix
        (Format.pp_print_list
           ~pp_sep:(fun f () -> Format.pp_print_string f " ")
           Asn.pp)
        as_path
  | Withdraw { prefix } -> Format.fprintf fmt "W %a" Prefix.pp prefix

open Because_bgp

type op =
  | Announce of { time : float; origin : Asn.t; prefix : Prefix.t }
  | Withdraw of { time : float; origin : Asn.t; prefix : Prefix.t }
  | Session_reset of { time : float; a : Asn.t; b : Asn.t }
  | Link_down of { time : float; a : Asn.t; b : Asn.t }
  | Link_up of { time : float; a : Asn.t; b : Asn.t }
  | Impair of { a : Asn.t; b : Asn.t; loss : float; duplication : float }

type t = {
  mutable ops : op list;  (* newest first *)
  mutable ranks : int Prefix.Map.t;  (* prefix -> first-touch rank *)
  mutable n_prefixes : int;
}

let create () = { ops = []; ranks = Prefix.Map.empty; n_prefixes = 0 }

let touch t prefix =
  if not (Prefix.Map.mem prefix t.ranks) then begin
    t.ranks <- Prefix.Map.add prefix t.n_prefixes t.ranks;
    t.n_prefixes <- t.n_prefixes + 1
  end

let push t op = t.ops <- op :: t.ops

let announce t ~time ~origin prefix =
  touch t prefix;
  push t (Announce { time; origin; prefix })

let withdraw t ~time ~origin prefix =
  touch t prefix;
  push t (Withdraw { time; origin; prefix })

let session_reset t ~time ~a ~b = push t (Session_reset { time; a; b })
let link_down t ~time ~a ~b = push t (Link_down { time; a; b })
let link_up t ~time ~a ~b = push t (Link_up { time; a; b })

let impair t ~a ~b ~loss ~duplication =
  push t (Impair { a; b; loss; duplication })

let ops t = List.rev t.ops
let n_prefixes t = t.n_prefixes
let rank t prefix = Prefix.Map.find_opt prefix t.ranks

let prefixes t =
  Prefix.Map.bindings t.ranks
  |> List.sort (fun (_, a) (_, b) -> Int.compare a b)
  |> List.map fst

let replay ops net =
  List.iter
    (function
      | Announce { time; origin; prefix } ->
          Network.schedule_announce net ~time ~origin prefix
      | Withdraw { time; origin; prefix } ->
          Network.schedule_withdraw net ~time ~origin prefix
      | Session_reset { time; a; b } ->
          Network.schedule_session_reset net ~time ~a ~b
      | Link_down { time; a; b } -> Network.schedule_link_down net ~time ~a ~b
      | Link_up { time; a; b } -> Network.schedule_link_up net ~time ~a ~b
      | Impair { a; b; loss; duplication } ->
          Network.set_link_impairment net ~a ~b ~loss ~duplication)
    ops

let install t net = replay (ops t) net

(* Ops tagged with their recording position.  The prefix-agnostic ops are
   kept once, not copied into every bucket: a shard's op list interleaves
   them back by position when it is asked for. *)
type partition = {
  shared : (int * op) list;
  own : (int * op) list array;
}

let partition t =
  let own = Array.make (max 1 t.n_prefixes) [] and shared = ref [] in
  (* [t.ops] is newest first: counting down and consing leaves every
     bucket in recording order without a reversal. *)
  let n = List.length t.ops in
  List.iteri
    (fun i op ->
      let pos = n - 1 - i in
      match op with
      | Announce { prefix; _ } | Withdraw { prefix; _ } ->
          let s = Prefix.Map.find prefix t.ranks in
          own.(s) <- (pos, op) :: own.(s)
      | Session_reset _ | Link_down _ | Link_up _ | Impair _ ->
          shared := (pos, op) :: !shared)
    t.ops;
  { shared = !shared; own }

let n_shards p = Array.length p.own

let shard_ops p shard =
  let[@tail_mod_cons] rec interleave a b =
    match (a, b) with
    | (i, x) :: a', (j, _) :: _ when i < j -> x :: interleave a' b
    | _, (_, y) :: b' -> y :: interleave a b'
    | rest, [] -> List.map snd rest
  in
  interleave p.own.(shard) p.shared

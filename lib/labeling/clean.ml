open Because_bgp

let remove_prepending path =
  let rec go = function
    | a :: (b :: _ as rest) -> if Asn.equal a b then go rest else a :: go rest
    | short -> short
  in
  go path

let has_loop path =
  let deduped = remove_prepending path in
  let rec check seen = function
    | [] -> false
    | a :: rest -> Asn.Set.mem a seen || check (Asn.Set.add a seen) rest
  in
  check Asn.Set.empty deduped

(* No ASN appears twice, so there is neither prepending nor a loop.
   Pairwise over the (short) path, allocating nothing. *)
let rec absent a = function
  | [] -> true
  | b :: rest -> (not (Asn.equal a b)) && absent a rest

let rec distinct = function
  | [] -> true
  | a :: rest -> absent a rest && distinct rest

(* Almost every observed path is already clean and is returned as it is. *)
let clean path =
  if distinct path then Some path
  else
    let cleaned = remove_prepending path in
    if has_loop cleaned then None else Some cleaned

module Path_table = Hashtbl.Make (struct
  type t = Asn.t list

  let rec equal a b =
    match (a, b) with
    | [], [] -> true
    | x :: xs, y :: ys -> Asn.equal x y && equal xs ys
    | [], _ :: _ | _ :: _, [] -> false

  let hash path =
    List.fold_left (fun h a -> (h * 31) + Asn.to_int a) 17 path land max_int
end)

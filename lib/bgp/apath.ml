type t = { nodes : Asn.t list; length : int; hash : int }

let empty = { nodes = []; length = 0; hash = 17 }

let of_list nodes =
  let rec go h n = function
    | [] -> (h land max_int, n)
    | a :: rest -> go ((h * 31) + Asn.to_int a) (n + 1) rest
  in
  let hash, length = go 17 0 nodes in
  { nodes; length; hash }

(* The same hash and length walk as [of_list], abandoned at the first
   occurrence of [self]. *)
let loop_free self nodes =
  let rec go h n = function
    | [] -> Some { nodes; length = n; hash = h land max_int }
    | a :: rest ->
        if Asn.equal a self then None
        else go ((h * 31) + Asn.to_int a) (n + 1) rest
  in
  go 17 0 nodes

let nodes t = t.nodes
let length t = t.length

let rec nodes_equal a b =
  match (a, b) with
  | [], [] -> true
  | x :: xs, y :: ys -> Asn.equal x y && nodes_equal xs ys
  | [], _ :: _ | _ :: _, [] -> false

(* Hash and length disagree on almost every unequal pair, so the node walk
   runs only on (near-certain) equality. *)
let equal a b =
  a.hash = b.hash && a.length = b.length
  && (a.nodes == b.nodes || nodes_equal a.nodes b.nodes)

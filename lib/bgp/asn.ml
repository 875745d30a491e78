type t = int

let of_int n =
  if n < 0 || n > 0xFFFFFFFF then invalid_arg "Asn.of_int: out of range";
  n

let to_int t = t
let compare = Int.compare
let equal = Int.equal
let pp fmt t = Format.fprintf fmt "AS%d" t
let to_string t = "AS" ^ string_of_int t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

(** Autonomous System Numbers. *)

type t = private int

val of_int : int -> t
(** Raises [Invalid_argument] for negative or > 2³²−1 values. *)

val to_int : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

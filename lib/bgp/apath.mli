(** Interned AS paths.

    Updates carry their AS path as a plain list on the wire; the router
    interns each received path once into this record — one traversal
    computing the length and a multiplicative hash — so that the decision
    process compares path lengths in O(1) and path equality (the hot
    comparison in duplicate detection and best-route stability checks) in
    O(1) for the almost-sure unequal case. *)

type t

val empty : t
val of_list : Asn.t list -> t

val loop_free : Asn.t -> Asn.t list -> t option
(** [loop_free self nodes] is [Some (of_list nodes)] unless [nodes] holds
    [self] (an AS-path loop), in which case it is [None]: the receiver's
    loop check and the interning in one walk. *)

val nodes : t -> Asn.t list
(** The original list, neighbor first; shared, not copied. *)

val length : t -> int

val equal : t -> t -> bool
(** Hash and length first, node walk only on a match. *)

(** Binary min-heap keyed by (time, insertion sequence).

    Equal-time events pop in insertion order, which keeps the simulator
    deterministic.  Times, sequence numbers and payload slot indices live
    in parallel unboxed arrays, so the hot path ({!push}, {!min_time},
    {!remove_min}) allocates nothing and a sift writes no pointer: each
    payload is stored once into a slot on push and read once on pop. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val capacity : 'a t -> int
(** Payload slots allocated so far.  A popped entry's slot is reused
    before a new one is taken, so this is the peak of {!size} over the
    heap's life. *)

val push : 'a t -> time:float -> 'a -> unit

val min_time : 'a t -> float
(** Time of the earliest event, read in place.  Raises [Invalid_argument]
    on an empty heap. *)

val remove_min : 'a t -> 'a
(** Remove the earliest event and return its payload.  Raises
    [Invalid_argument] on an empty heap. *)

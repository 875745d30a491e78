(** Sorting float arrays without the polymorphic comparison closure.

    [Array.sort Float.compare] calls its comparison through a closure and
    boxes both operands on every call.  This module sorts and merges float
    arrays with inlined unboxed compares; posterior summaries sort every
    marginal sample, so this is where their time goes. *)

val sort : float array -> unit
(** Sorts in place into exactly the array [Array.sort Float.compare]
    produces, bit for bit: NaNs first, and values that compare equal
    (signed zeros, NaN payloads) in the same slots. *)

val sorted_copy : float array -> float array
(** A sorted copy; the input is left as it is. *)

val merge : float array array -> float array -> unit
(** [merge runs dst] writes the union of the ascending [runs] into the
    first [Σ length runs] slots of [dst] in ascending order, taking the
    earliest run first among equal values.  Where equal values are also
    bit-equal (no signed zeros, no NaNs), the result is what sorting the
    runs' concatenation gives.
    @raise Invalid_argument when [dst] is too short. *)

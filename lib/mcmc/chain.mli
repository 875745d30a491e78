(** Sample storage for MCMC runs.

    Draws are stored in one flat row-major [float array] ([length × dim]):
    a single unboxed block instead of one boxed row per draw.  Use
    {!value} / {!for_all_values} for allocation-free element access in hot
    loops and {!get} / {!marginal} when a fresh array is wanted. *)

type t

val of_samples : float array array -> t
(** Copies an [n_samples × dim] matrix (row = one posterior draw) into flat
    storage.  The input is not retained: callers may mutate it afterwards
    without affecting the chain.
    @raise Invalid_argument on an empty or ragged matrix. *)

val of_flat : dim:int -> float array -> t
(** [of_flat ~dim data] wraps row-major [data] (length a positive multiple
    of [dim]) without copying; the caller must not mutate [data] afterwards.
    @raise Invalid_argument on an empty array, a non-positive [dim], or a
    length that does not divide into rows. *)

val length : t -> int
val dim : t -> int

val get : t -> int -> float array
(** [get t k] is a fresh copy of the k-th draw.
    @raise Invalid_argument when [k] is out of bounds. *)

val value : t -> int -> int -> float
(** [value t k i] is coordinate [i] of draw [k] without allocating — the
    accessor hot loops (pinpointing, predictive checks) should use.
    @raise Invalid_argument when either index is out of bounds. *)

val marginal : t -> int -> float array
(** [marginal t i] extracts the i-th coordinate across all draws — the
    marginal posterior sample for one AS. *)

val marginal_into : t -> int -> len:int -> float array -> unit
(** [marginal_into t i ~len dst] writes coordinate [i] of the first [len]
    draws into [dst.(0 .. len-1)]: {!marginal} into a caller's reusable
    buffer.
    @raise Invalid_argument when [i] is out of bounds, or [len] exceeds
    the chain or [dst]. *)

val for_all_values : (float -> bool) -> t -> bool
(** [for_all_values f t] is [true] when [f] holds for every stored value;
    allocation-free (used by the chain health check). *)

val thin : t -> int -> t
(** [thin t k] keeps every k-th draw.  The result owns its storage — unlike
    the historical row-sharing implementation, mutating one chain's storage
    can never leak into the other.
    @raise Invalid_argument when [k <= 0] (a zero stride would divide by
    zero; a negative one would loop). *)

val prefix : t -> int -> t
(** [prefix t n] is the first [n] draws.  Shares nothing with [t] unless
    [n = length t] (then it is [t] itself) — the prefix copy that the
    convergence gate's copy-free scan is checked against.
    @raise Invalid_argument when [n <= 0] or [n > length t]. *)

val equal : t -> t -> bool
(** Bit-for-bit equality: every draw compared by IEEE bit pattern
    ([Int64.bits_of_float]), so [-0.] ≠ [0.] and NaNs compare equal to
    themselves.  This is the equality the checkpoint/resume guarantee is
    stated in. *)

val concat : t list -> t
(** Concatenate chains of equal dimension in one allocation (linear in the
    total draw count, unlike a repeated-{!append} fold).
    @raise Invalid_argument on an empty list or a dimension mismatch. *)

val append : t -> t -> t
(** Concatenate two chains of equal dimension. *)

type embedding = {
  width : int;  (** Dimension of the full rows. *)
  columns : int array;
      (** Column of each pushed coordinate in the full row, strictly
          ascending and below [width]. *)
  fill : float array -> int -> unit;
      (** [fill data base] writes the other columns of the full row that
          starts at [data.(base)]; called once per row, in row order, after
          the pushed coordinates are in place and the other columns are
          zero. *)
}
(** Where a {!Builder}'s draws go in wider rows: a sampler that runs over a
    subset of the coordinates fills full-dimension draws without a second
    buffer. *)

(** Pre-sized flat accumulator the samplers blit kept draws into.  One
    buffer allocation up front replaces one row allocation plus copy per
    kept draw, and {!Builder.to_chain} hands the buffer to the chain
    without copying when it is exactly full. *)
module Builder : sig
  type chain := t
  type t

  val create : dim:int -> capacity:int -> t
  (** @raise Invalid_argument when [dim <= 0] or [capacity <= 0]. *)

  val embedded : embedding -> dim:int -> capacity:int -> t
  (** [embedded e ~dim ~capacity] keeps draws of [dim] values like
      {!create}, in room for [capacity] rows of [e.width] values, which
      {!to_chain} spreads them over.
      @raise Invalid_argument as {!create}, or when [e.columns] are not
      [dim] ascending columns below [e.width]. *)

  val count : t -> int
  (** Draws pushed (or loaded) so far. *)

  val dim : t -> int

  val push : t -> float array -> unit
  (** Blit one draw into the next slot.
      @raise Invalid_argument on a dimension mismatch, a full builder, or a
      builder already converted with {!to_chain}. *)

  val flat_prefix : t -> float array
  (** Fresh flat copy of the draws kept so far ([count × dim] values) — the
      checkpoint snapshot payload.  One copy, not the historical
      copy-of-copies. *)

  val load_flat : t -> float array -> unit
  (** Restore draws saved by {!flat_prefix}, replacing any current content.
      @raise Invalid_argument when the length does not divide into rows or
      exceeds the capacity. *)

  val to_chain : t -> chain
  (** Seal the builder into a chain, of dimension [e.width] for an
      {!embedded} builder (its draws spread in place, then [e.fill]ed).  Zero-copy when exactly full ([count = capacity]);
      the builder is unusable afterwards.
      @raise Invalid_argument on an empty builder or a second call. *)
end

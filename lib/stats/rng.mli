(** Deterministic pseudo-random number generation.

    All stochastic components of this repository draw their randomness from an
    explicit [Rng.t] so that every simulation, campaign and MCMC run is
    reproducible bit-for-bit from a seed.  The generator is SplitMix64
    (Steele, Lea & Flood 2014): a tiny, fast, well-distributed 64-bit
    generator that also supports cheap splitting into independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal seeds
    produce equal streams. *)

val copy : t -> t
(** [copy t] duplicates the state; the copy evolves independently. *)

val state : t -> string
(** [state t] serializes the exact generator state as 16 lowercase hex
    characters.  Pairs with {!of_state} to freeze and later continue a
    stream bit-for-bit — the primitive the checkpoint/resume subsystem
    builds on, and handy on its own for replaying a failing chain from the
    state printed in a bug report. *)

val of_state : string -> t
(** [of_state s] rebuilds a generator from a {!state} string; the new
    generator produces exactly the continuation of the serialized stream.
    Raises [Invalid_argument] on anything but 16 hex characters. *)

val split : t -> t
(** [split t] derives a statistically independent child generator and
    advances [t].  Used to give subsystems their own streams so that adding
    draws in one subsystem does not perturb another. *)

val split_n : t -> int -> t array
(** [split_n t n] derives [n] independent child generators in one go —
    element [k] equals the k-th successive {!split}.  Pre-splitting a
    stream per task is what makes parallel execution order-independent:
    every worker owns its generator before any work starts. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [\[0, 1)] with 53-bit resolution. *)

val keyed_float : int -> int list -> float
(** [keyed_float seed key] is uniform on [\[0, 1)] and a pure function of
    [seed] and [key]: no generator state is read or advanced.  A draw keyed
    by what it is about, not by how many draws came before it, cannot
    depend on the order or the company it is taken in. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)].  [bound] must be positive. *)

val bool : t -> bool
(** Fair coin. *)

val range_float : t -> float -> float -> float
(** [range_float t lo hi] is uniform on [\[lo, hi)]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> 'a array -> 'a array
(** [sample_without_replacement t k arr] returns [k] distinct elements chosen
    uniformly.  Raises [Invalid_argument] if [k > Array.length arr]. *)

(** Highest Posterior Density Intervals.

    The paper summarises each marginal posterior by its mean and the smallest
    interval containing γ = 0.95 of the mass (§5.1.2); the interval's width is
    the certainty measure plotted in Fig. 11. *)

type t = { lo : float; hi : float }

val width : t -> float

val compute : ?mass:float -> float array -> t
(** [compute ~mass samples] returns the shortest interval [\[lo, hi\]]
    containing at least [mass] (default 0.95) of the samples: the classic
    sliding-window minimiser over sorted samples.  Raises [Invalid_argument]
    on an empty array or a mass outside (0, 1]. *)

val of_sorted : ?mass:float -> float array -> t
(** [compute] over samples already in ascending order, without copying or
    sorting them: [of_sorted ~mass (sorted xs) = compute ~mass xs].
    Raises [Invalid_argument] like [compute]. *)

val contains : t -> float -> bool

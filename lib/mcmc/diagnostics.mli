(** Convergence diagnostics for MCMC output. *)

val autocorrelation : float array -> int -> float
(** [autocorrelation xs lag] is the sample autocorrelation at [lag]
    (0 when the series is constant or shorter than [lag + 2]). *)

val effective_sample_size : float array -> float
(** Effective sample size via Geyer's initial positive sequence: pair
    consecutive autocorrelations and truncate at the first non-positive
    pair sum. *)

val split_r_hat : float array -> float
(** Split-R̂ (Gelman–Rubin on the two halves of a single chain).  Values
    close to 1 indicate the chain has mixed; we flag > 1.1. *)

val r_hat : float array array -> float
(** Classic multi-chain potential scale reduction factor. *)

val split_r_hat_prefix : float array -> int -> float
(** [split_r_hat_prefix xs n] equals [split_r_hat (Array.sub xs 0 n)]
    bit-for-bit, without the copy.
    @raise Invalid_argument when [n] exceeds the array. *)

val r_hat_prefix : float array array -> int -> float
(** [r_hat_prefix chains n] equals [r_hat] over each chain's first [n]
    values, bit-for-bit, without the copies.
    @raise Invalid_argument on fewer than two chains or a chain shorter
    than [n]. *)

val split_r_hat_coord : Chain.t -> int -> float
(** [split_r_hat_coord chain i] equals [split_r_hat (Chain.marginal chain i)]
    bit-for-bit, computed directly over the chain's flat storage without
    materialising the marginal. *)

val r_hat_coord : Chain.t array -> int -> float
(** [r_hat_coord chains i] equals
    [r_hat (Array.map (fun c -> Chain.marginal c i) chains)] bit-for-bit,
    without materialising the marginals.  Raises [Invalid_argument] on
    fewer than two chains or unequal lengths. *)

(** Probability distributions: samplers and log-densities.

    Every sampler takes an explicit {!Rng.t}.  Log-densities are used by the
    MCMC targets; samplers drive the simulator and synthetic workloads. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** Uniform draw on [\[lo, hi)]. *)

val uniform_log_pdf : lo:float -> hi:float -> float -> float
(** Log-density of the uniform distribution ([neg_infinity] outside). *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian draw (Box–Muller; no state is cached so draws are independent of
    call interleaving). *)

val normal_log_pdf : mu:float -> sigma:float -> float -> float

val exponential : Rng.t -> rate:float -> float
(** Exponential draw with rate λ (mean 1/λ). *)

val exponential_log_pdf : rate:float -> float -> float

val gamma : Rng.t -> shape:float -> scale:float -> float
(** Gamma draw (Marsaglia–Tsang squeeze for shape ≥ 1, boosted for < 1). *)

val beta : Rng.t -> a:float -> b:float -> float
(** Beta draw via two gammas. *)

val beta_log_pdf : a:float -> b:float -> float -> float
(** Log-density of Beta(a, b); [neg_infinity] outside (0, 1). *)

val beta_log_pdf_normed :
  a:float -> b:float -> log_norm:float -> float -> float
(** [beta_log_pdf] with its normaliser [log_norm = Special.log_beta a b]
    computed by the caller, once per (a, b) instead of once per call (three
    Lanczos log-gammas).  Bit-equal to [beta_log_pdf ~a ~b]. *)

val bernoulli : Rng.t -> p:float -> bool

val binomial : Rng.t -> n:int -> p:float -> int
(** Sum of [n] Bernoulli(p) draws. *)

val categorical : Rng.t -> float array -> int
(** [categorical rng weights] draws index [i] with probability proportional
    to [weights.(i)].  Weights must be non-negative with a positive sum. *)

val poisson : Rng.t -> lambda:float -> int
(** Poisson draw (Knuth's method; adequate for the small rates used by the
    background-churn generator). *)

val pareto : Rng.t -> alpha:float -> x_min:float -> float
(** Pareto draw; used for heavy-tailed AS degree/customer-cone sizes. *)

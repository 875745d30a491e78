(** Gibbs sampling — the "naive" computational-Bayes baseline.

    The paper (§1, §8) notes that computational Bayesian methods were often
    discarded in favour of heuristics because naive approaches such as Gibbs
    sampling are computationally costly, and that prior tomography work
    ([14, 29]) only ever tried Gibbs.  This module implements it so the claim
    can be measured: each coordinate is resampled from its full conditional
    P(pᵢ ∣ p₋ᵢ, D), approximated on a fine grid (the conditional has no
    closed form under the path-product likelihood, so exact inversion needs a
    per-coordinate density sweep — which is precisely where the cost lives).

    One Gibbs sweep costs {!grid} single-site density evaluations per
    coordinate versus one for Metropolis–Hastings, and mixes no better — the
    `ablations` bench quantifies the ESS-per-work gap against MH and HMC. *)

open Because_mcmc

type result = Driver.result = {
  chain : Chain.t;
  acceptance : float;
      (** Fraction of post-burn-in sweeps in which at least one
          coordinate landed in a different grid cell than it occupied
          before the sweep.  Gibbs proposals are never {e rejected} in the
          Metropolis–Hastings sense, so this measures mobility — how often
          a full conditional sweep actually moved the point — and is the
          comparable "did the chain move" number next to MH/HMC acceptance
          rates.  Intra-cell jitter does not count as movement.  1.0 means
          every sweep moved; values near 0 flag a chain frozen on the
          grid. *)
}

val grid : int
(** Conditional-density evaluation points per coordinate update (64). *)

val run :
  rng:Because_stats.Rng.t ->
  n_samples:int ->
  burn_in:int ->
  Target.t ->
  result
(** [run ~rng ~n_samples ~burn_in target] requires a target on the unit box
    and starts every coordinate at 0.5.  Evaluates the grid through
    {!Target.cache_at}; one sweep is one {!Driver.step}, kept unthinned.
    @raise Invalid_argument when the target is not on the unit box.
    @raise Failure when the log-density is non-finite at the start. *)

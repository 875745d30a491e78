(** Hamiltonian Monte Carlo (§3.2 of the paper).

    States are proposed by integrating Hamiltonian dynamics — leapfrog steps
    through the potential −log posterior with Gaussian momenta — then accepted
    with a Metropolis update on the total energy.  This yields distant,
    multidimensional moves that escape the local modes single-site samplers
    can get stuck near.

    For targets on the unit box the sampler runs in logit space: with
    pᵢ = σ(θᵢ) the transformed log density is
    log P(p) + Σᵢ log(pᵢ(1−pᵢ)) (the change-of-variables Jacobian), whose
    gradient adds the (1 − 2pᵢ) Jacobian term.  Draws are mapped back to p
    before being stored, so the returned chain always lives in the original
    parametrisation.

    One trajectory is one {!Driver.step}; burn-in, resume and the
    supervision hook are {!Driver.run}'s. *)

type result = Driver.result = {
  chain : Chain.t;     (** Post burn-in draws in the original space. *)
  acceptance : float;  (** Post burn-in trajectory acceptance rate. *)
}

type state = {
  s_iter : int;
  s_rng : string;
  s_position : float array;
      (** Current point in the {e unconstrained} (logit) space. *)
  s_step : float;
  s_log_post : float;
  s_accept_window : int;
  s_kept : float array;
      (** Retained draws so far, flat row-major ([kept × dim] values). *)
  s_accepted_post : int;
  s_proposed_post : int;
}
(** Complete between-iterations state of {!run}; same contract as
    {!Metropolis.state} — resuming replays the identical trajectory. *)

val run :
  rng:Because_stats.Rng.t ->
  ?init:float array ->
  ?leapfrog_steps:int ->
  ?resume:state ->
  ?control:(sweep:int -> state:(unit -> state) -> unit) ->
  ?embed:Chain.embedding ->
  n_samples:int ->
  burn_in:int ->
  Target.t ->
  result
(** [run ~rng ~n_samples ~burn_in target] requires [target.grad_log_density].
    [leapfrog_steps] defaults to 15 and must match the original run when
    resuming.  The step size starts at 0.05 and adapts towards a 0.75
    acceptance rate during burn-in.  [resume]/[control]/[embed] follow the
    {!Metropolis.run_single_site} contract.  Raises [Invalid_argument] if
    the target has no gradient or a [resume] state has the wrong
    dimension.
    @raise Failure when the log-density is non-finite at the initial point
    (a broken target or an initializer outside the support). *)

val sigmoid : float -> float
val logit : float -> float
(** The constrained ↔ unconstrained maps, exposed for tests. *)

(** The retained-draw loop every sampler shares.

    A sampler ({!Metropolis}, {!Hmc}, the bench's Gibbs baseline) supplies
    only its per-sweep {!step}: how to advance the point by one sweep, what
    to store as a draw, and how to package its own between-sweeps state.
    {!run} owns everything else, once for all three:

    - the non-finite-start check;
    - resume — the saved RNG stream, kept draws, sweep index and counters;
    - the burn-in/retained split and the {!Chain.Builder} pushes;
    - the post-burn-in accepted/proposed counters and the acceptance ratio;
    - the per-sweep [control] hook with its lazy state thunk.

    The loop consumes no randomness of its own: every draw comes from the
    sampler's [advance], in sweep order, so a sampler driven here draws
    exactly what its hand-written loop drew. *)

type progress = {
  sweep : int;         (** Completed sweeps. *)
  rng : string;        (** Exact RNG stream position ({!Because_stats.Rng.state}). *)
  kept : float array;  (** Retained draws so far, flat row-major ([kept × dim]). *)
  accepted : int;      (** Post-burn-in accepted proposals. *)
  proposed : int;      (** Post-burn-in proposals. *)
}
(** The driver's share of a between-sweeps snapshot; each sampler stores
    these fields in its own state record. *)

type 's step = {
  dim : int;
  log_density : float;
      (** Log density at the starting point; a fresh run whose start is
          non-finite fails here instead of propagating NaN through every
          acceptance test. *)
  proposals : int;  (** Proposals one sweep makes (MH: [dim]; HMC, Gibbs: 1). *)
  advance : Because_stats.Rng.t -> in_burn_in:bool -> sweep:int -> int;
      (** Run sweep [sweep] (0-based) and return how many of its proposals
          were accepted.  Burn-in adaptation is the sampler's own business. *)
  draw : unit -> float array;
      (** The current point in the original parametrisation; copied into
          the chain, so it may be the sampler's live buffer. *)
  save : progress -> 's;
      (** The sampler's complete state record around the driver's
          [progress]; called only when a supervisor saves. *)
}
(** One sampler positioned at its start (fresh or resumed). *)

type result = {
  chain : Chain.t;     (** Post burn-in draws. *)
  acceptance : float;  (** Post burn-in accepted / proposed; 0 with no proposals. *)
}

val run :
  name:string ->
  rng:Because_stats.Rng.t ->
  ?resume:progress ->
  ?control:(sweep:int -> state:(unit -> 's) -> unit) ->
  ?embed:Chain.embedding ->
  n_samples:int ->
  burn_in:int ->
  's step ->
  result
(** Sweep until [n_samples] draws are kept: sweeps [0, burn_in) are
    discarded, then every sweep is kept.  With
    [resume] the loop continues from the saved progress — the saved RNG
    stream replaces [rng] — bit for bit as if it had never stopped.
    [control] runs after every completed sweep with a thunk that builds
    the state only when called; exceptions it raises propagate.  With
    [embed] the chain holds full rows of [embed.width] values
    ({!Chain.Builder.embedded}); the kept draws of [progress] stay
    [step.dim] wide.
    @raise Invalid_argument when [embed] does not fit
    [step.dim], or the resumed kept draws do not fit
    [step.dim × n_samples].
    @raise Failure when a fresh run starts at a non-finite log density.
    Messages start with [name]. *)

val restore : name:string -> dim:int -> 'a array -> 'a array
(** Copy of a saved per-coordinate array.
    @raise Invalid_argument when its length is not [dim]. *)

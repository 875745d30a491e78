(** Single-site Metropolis–Hastings (§3.2 of the paper).

    {!run_single_site} updates one coordinate at a time with a reflected
    Gaussian random walk.  It evaluates every proposal through
    {!Target.cache_at}: the target's own stateful cache when it has one —
    deltas reuse the cached per-path sufficient statistics and accepted
    moves are committed incrementally — else the generic cache over
    [log_density_delta] or a full recompute.  This is what makes
    500+-dimensional tomography posteriors practical.

    Per-coordinate step sizes start at 0.2, adapt during burn-in
    (Robbins–Monro towards the single-site optimal acceptance rate 0.44)
    and are frozen afterwards, preserving detailed balance for the
    retained draws.  One sweep is one {!Driver.step}; burn-in, resume and
    the supervision hook are {!Driver.run}'s. *)

type result = Driver.result = {
  chain : Chain.t;     (** Post burn-in draws. *)
  acceptance : float;  (** Post burn-in acceptance rate. *)
}

type state = {
  s_sweep : int;                 (** Completed sweeps so far. *)
  s_rng : string;                (** Exact RNG stream position ({!Because_stats.Rng.state}). *)
  s_current : float array;       (** Current point. *)
  s_steps : float array;         (** Per-coordinate proposal scales. *)
  s_log_post : float;            (** Log density at [s_current], exactly as accumulated. *)
  s_accept_window : int array;   (** Burn-in adaptation window counters. *)
  s_kept : float array;
      (** Retained draws so far, flat row-major ([kept × dim] values) —
          the layout {!Chain.Builder.flat_prefix} produces. *)
  s_accepted_post : int;
  s_proposed_post : int;
  s_cache : float array option;
      (** Incremental cache state ([Target.cached_state]) — carried
          verbatim because rebuilt statistics differ in the last ulp.
          Always [Some] when written; a resume state with [None] is
          rejected. *)
}
(** Complete between-sweeps state of {!run_single_site}.  Resuming from a
    snapshot replays the identical trajectory: same draws, same adapted
    steps, same acceptance counters.  The record is transparent so the
    checkpoint layer can serialize it without this module knowing about
    on-disk formats. *)

val run_single_site :
  rng:Because_stats.Rng.t ->
  ?init:float array ->
  ?resume:state ->
  ?control:(sweep:int -> state:(unit -> state) -> unit) ->
  ?embed:Chain.embedding ->
  n_samples:int ->
  burn_in:int ->
  Target.t ->
  result
(** [run_single_site ~rng ~n_samples ~burn_in target] draws [n_samples]
    retained samples after [burn_in] adaptation sweeps.  [init] defaults to
    the centre of the support.

    [resume] continues a previous run from its saved {!state} — bit-for-bit,
    as if it had never stopped; [rng] and [init] are then ignored in favour
    of the saved stream and point.  [control] is invoked after every
    completed sweep with a lazy state thunk; supervisors use it to enforce
    budgets (raise to abort — exceptions propagate untouched) and to decide
    when to checkpoint.  The thunk allocates only when called.  [embed]
    spreads each draw over a wider row ({!Chain.embedding}); the saved
    state keeps the target's own dimension.
    @raise Invalid_argument when a [resume] state does not
    match the target (dimension or cache-shape mismatch).
    @raise Failure when the log-density is non-finite at the initial point
    (a broken target or an initializer outside the support) — instead of
    silently propagating NaN through every acceptance test. *)

val reflect_unit : float -> float
(** Reflect a proposal into [\[0, 1\]] (symmetric, so the MH ratio needs no
    proposal correction).  Exposed for the property tests. *)

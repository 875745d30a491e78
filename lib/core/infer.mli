(** Posterior sampling orchestration: run Metropolis–Hastings and Hamiltonian
    Monte Carlo on a tomography dataset and collect their chains.

    The paper runs both samplers and, when categorising, keeps the highest
    flag either assigns — so both are enabled by default.

    Sampling work is organised as independent tasks (one per sampler per
    chain), each owning a generator split off the caller's stream before
    anything executes.  [jobs > 1] fans the tasks out over that many OCaml
    domains; because the streams are pre-split and results land in fixed
    slots, the output is bit-for-bit identical for every [jobs] value. *)

type config = {
  n_samples : int;       (** Retained draws per sampler chain. *)
  burn_in : int;         (** Adaptation iterations discarded per chain. *)
  thin : int;
  prior : Prior.t;
  node_priors : (Because_bgp.Asn.t * Prior.t) list;
  false_negative_rate : float;
      (** §7.2 error-aware likelihood; 0 recovers the base model. *)
  leapfrog_steps : int;  (** HMC trajectory length. *)
  run_mh : bool;
  run_hmc : bool;
  max_restarts : int;
      (** Automatic restarts (fresh RNG split each) granted to a chain
          whose run diverges or raises on a non-finite log-density. *)
  n_chains : int;
      (** Independent chains per enabled sampler.  1 (the default)
          reproduces the single-chain behaviour exactly; more chains feed
          the cross-chain {!r_hat} diagnostic. *)
  jobs : int;
      (** Worker domains the sampler tasks are spread over.  1 (the
          default) runs everything on the calling domain.  Any value
          produces bit-for-bit identical results. *)
  telemetry : Because_telemetry.Registry.t;
      (** Observability sink.  Disabled (the default) costs one branch per
          record site and changes nothing; enabled, each chain task records
          a span, per-chain acceptance gauges, sampler work counters
          ([mcmc.sweeps], [mcmc.mh.deltas_cached], [mcmc.hmc.grad_evals],
          [mcmc.restarts], [mcmc.aborts]) and — after the result is
          assembled — worst-case [mcmc.rhat.<sampler>] gauges.  Telemetry
          never touches the RNG streams, so results are identical either
          way. *)
  supervise : Because_recover.Supervise.budget;
      (** Per-chain wall-clock/sweep budget, enforced cooperatively after
          every sweep inside the worker domain.  A chain that crosses a
          limit is terminated and reported in [result.aborted] — the run
          itself completes (degraded), it does not fail.  Unlimited (the
          default) adds no per-sweep work at all. *)
  checkpoint : Because_recover.Chain_ckpt.hooks option;
      (** Per-chain durable snapshots.  When set, each chain loads its last
          snapshot before starting (continuing mid-stream, bit-for-bit) and
          saves on the hooks' cadence plus once at its final sweep.  A
          snapshot the sampler rejects (wrong dimension or cache-state
          size for this dataset) never raises: that chain starts cold with
          a warning, drawing exactly what it would with no snapshot.  [None]
          (the default) is the historical zero-overhead path. *)
  init : float array option;
      (** Starting point handed to every chain (original-space, one value
          per dataset node).  [None] (the default) keeps each sampler's own
          initializer.  Streaming epochs warm-start here from the previous
          epoch's posterior means. *)
}

val default_config : config
(** 1000 samples after 500 burn-in, no thinning, {!Prior.default}, 12
    leapfrog steps, both samplers, 2 restarts, 1 chain each, 1 job,
    telemetry disabled. *)

type sampler_run = {
  name : string;          (** ["MH"] or ["HMC"]. *)
  chain_index : int;      (** 0 .. n_chains-1 within that sampler. *)
  chain : Because_mcmc.Chain.t;
  acceptance : float;
}

type result = {
  model : Model.t;
  runs : sampler_run list;
      (** One entry per sampler chain that produced a healthy run, in
          deterministic (sampler, chain) order; a chain exhausting its
          restarts is dropped (see [warnings]). *)
  warnings : string list;
      (** Human-readable notes on diverged attempts, disabled chains and
          unusable checkpoint snapshots; [\[\]] on a clean run. *)
  aborted : string list;
      (** One entry per chain terminated by the supervision budget
          ([config.supervise]).  Non-empty means the posterior is partial:
          downstream consumers should degrade to heuristic localization and
          report a [Degraded] outcome. *)
}

val run :
  rng:Because_stats.Rng.t -> ?config:config -> Tomography.t -> result
(** Never raises on sampler divergence: each chain gets [1 + max_restarts]
    attempts and is skipped with a warning if none yields an all-finite
    chain.  [runs] can therefore be empty; downstream consumers must treat
    that as "no posterior" rather than call {!combined_chain}.

    Determinism: the per-task generators are split off [rng] in fixed task
    order before any sampling starts, so the result — chains, acceptance
    rates and warnings alike — does not depend on [config.jobs].  With the
    default single-chain config a healthy run consumes exactly one
    [Rng.split] per enabled sampler, as the sequential implementation always
    did. *)

val combined_chain : result -> Because_mcmc.Chain.t
(** All retained draws across samplers and chains concatenated in one
    allocation (used for point estimates where sampler identity does not
    matter, e.g. pinpointing). *)

val r_hat : result -> (string * float) list
(** Worst-coordinate potential scale reduction per sampler: across-chain
    R̂ when the sampler ran [n_chains ≥ 2], split-R̂ on the single chain
    otherwise.  Values ≲ 1.05 indicate convergence; we flag > 1.1. *)

val gate_draws : ?threshold:float -> result -> int option
(** Convergence gate: the smallest retained-draw prefix (scanned over a
    coarse grid of ~16 lengths) at which the worst {!r_hat}-style
    diagnostic across every sampler and coordinate is [<= threshold]
    (default 1.1).  [None] when no runs survived, the chains are shorter
    than 8 draws, or no prefix on the grid passes.  Warm-started epochs
    report [burn_in + gate_draws·thin] as their sweeps-to-convergence. *)

val dataset : result -> Tomography.t

val status : result -> Because_recover.Supervise.status
(** Health of a finished inference: [Degraded] when a chain hit its
    supervision budget ([aborted]) or every chain was dropped, otherwise
    [Healthy]. *)

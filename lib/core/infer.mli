(** Posterior sampling orchestration: run Metropolis–Hastings and Hamiltonian
    Monte Carlo on a tomography dataset and collect their chains.

    The paper runs both samplers and, when categorising, keeps the highest
    flag either assigns — so every run samples with both, keeping every
    draw after burn-in (no thinning).

    Sampling work is organised as independent tasks (one per sampler per
    chain), each owning a generator split off the caller's stream before
    anything executes.  [jobs > 1] fans the tasks out over that many OCaml
    domains; because the streams are pre-split and results land in fixed
    slots, the output is bit-for-bit identical for every [jobs] value. *)

type config = {
  n_samples : int;       (** Retained draws per sampler chain. *)
  burn_in : int;         (** Adaptation iterations discarded per chain. *)
  prior : Prior.t;
  node_priors : (Because_bgp.Asn.t * Prior.t) list;
  false_negative_rate : float;
      (** §7.2 error-aware likelihood; 0 recovers the base model. *)
  leapfrog_steps : int;  (** HMC trajectory length. *)
  n_chains : int;
      (** Independent chains per sampler.  1 (the default)
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
          ([mcmc.sweeps], [mcmc.mh.deltas_cached] — one per sampled
          coordinate per sweep, so the exact set adds none —,
          [mcmc.hmc.grad_evals], [mcmc.aborts]) and —
          after the result is
          assembled — worst-case [mcmc.rhat.<sampler>] gauges.  Telemetry
          never touches the RNG streams, so results are identical either
          way. *)
  supervise : Because_recover.Supervise.budget;
      (** Per-chain wall-clock/sweep budget, enforced cooperatively after
          every sweep inside the worker domain.  A chain that crosses a
          limit is terminated and reported in [result.aborted] — the run
          itself completes (degraded), it does not fail.  Unlimited (the
          default) costs one counter bump per sweep. *)
  checkpoint : Because_recover.Chain_ckpt.hooks option;
      (** Per-chain durable snapshots.  When set, each chain loads its last
          snapshot before starting (continuing mid-stream, bit-for-bit) and
          saves on the hooks' cadence plus once at its final sweep.  A
          snapshot the sampler rejects (wrong dimension or cache-state
          size for this dataset) or written for another {!split} layout
          never raises: that chain starts cold with a warning, drawing
          exactly what it would with no snapshot.  The exact set is not
          saved: a resumed chain redraws it.  [None] (the default) is the
          historical zero-overhead path. *)
  init : float array option;
      (** Starting point handed to every chain (original-space, one value
          per dataset node; the samplers start at its {!split} coupled
          coordinates).  [None] (the default) keeps each sampler's own
          initializer.  Streaming epochs warm-start here from the previous
          epoch's posterior means. *)
}

val default_config : config
(** 1000 samples after 500 burn-in, {!Prior.default}, 12 leapfrog steps,
    1 chain per sampler, 1 job, telemetry disabled. *)

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
          deterministic (sampler, chain) order; a chain that diverges is
          dropped (see [warnings]). *)
  warnings : string list;
      (** Human-readable notes on disabled chains and unusable checkpoint
          snapshots; [\[\]] on a clean run. *)
  aborted : string list;
      (** One entry per chain terminated by the supervision budget
          ([config.supervise]).  Non-empty means the posterior is partial:
          downstream consumers should degrade to heuristic localization and
          report a [Degraded] outcome. *)
}

(** {2 The factorization}

    At ε = 0 the clean term of distinct path j is ∏ᵢ qᵢ^n_clean_j, one
    factor per AS, and every {!Prior.t} is a Beta ({!Prior.beta_params}).
    With cᵢ the clean observations crossing AS i (counted once per
    position of i on the path), the posterior therefore splits in two:

    - an AS on no path with an RFD label has the exact posterior
      Beta(a, b + cᵢ), independent of every other AS: the {e exact set};
    - the other ASs, the {e coupled set}, have the posterior of the RFD
      labeled paths alone ({!Tomography.positive_part}) under the priors
      Beta(a, b + cᵢ) ({!Prior.observe_clean}).

    For ε > 0 the clean term ε + (1 − ε)·∏ qᵢ couples the ASs it crosses,
    and the split is the identity: every node is sampled under its own
    prior, on the whole dataset. *)

type split = {
  sampled : Model.t option;
      (** What MH and HMC run on: the coupled set's model, or the whole
          dataset's model for the identity split.  [None] when no
          observation carries an RFD label, so every node is exact. *)
  coupled : int array;
      (** Dataset index of each node of [sampled], ascending. *)
  exact : int array;  (** Dataset indices of the exact set, ascending. *)
  exact_beta : (float * float) array;
      (** Beta(a, b + cᵢ) of each node of [exact], in the same order. *)
  clean : int array;  (** cᵢ for every dataset node. *)
  layout : string;
      (** Names the coordinates a chain snapshot covers: [""] for the
          identity split, otherwise the coupled set's size and digest.
          Snapshots of any other layout start cold. *)
}

val split : config -> Tomography.t -> split
(** The split {!run} samples under [config]: the identity unless
    [config.false_negative_rate = 0]. *)

val run :
  rng:Because_stats.Rng.t -> ?config:config -> Tomography.t -> result
(** Never raises on sampler divergence: each chain runs once, and one
    that fails to start (a non-finite log density at its initial point) or
    yields a non-finite draw is skipped with the warning
    ["<sampler> disabled: diverged: <reason>"].  A rerun would only repeat
    the failure, which depends on the start point, not on the generator.
    [runs] can therefore be empty; downstream consumers must treat that as
    "no posterior" rather than call {!combined_chain}.

    MH and HMC sample only the coupled set of {!split}.  Each chain's
    exact set is drawn i.i.d. from its Beta posteriors, [n_samples] draws
    per chain, every draw in (0, 1).  The sampler keeps its draws in a
    buffer sized for full rows ({!Because_mcmc.Chain.embedding}) and
    spreads them in place over a chain of every dataset node in dataset
    order, the exact draws filling the other columns, so
    [result.model] is the whole dataset's model and every consumer of the
    chains reads them as before.  When no observation is RFD-labeled, no
    sampler runs: each chain is exact draws only, with acceptance 1.

    Determinism: before any sampling starts, one generator per task
    (sampler chain) is split off [rng] in fixed task order, and — when the
    exact set is non-empty — one more per task for its exact draws.  So the
    result — chains, acceptance rates and warnings alike — does not depend
    on [config.jobs], and a resumed chain redraws its exact block bit for
    bit without storing it.  With the default single-chain
    config and no exact set (always the case for ε > 0) a healthy run
    consumes exactly one [Rng.split] per sampler, as the sequential
    implementation always did; with an exact set, two. *)

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
    report [burn_in + gate_draws] as their sweeps-to-convergence. *)

val dataset : result -> Tomography.t

val status : result -> Because_recover.Supervise.status
(** Health of a finished inference: [Degraded] when a chain hit its
    supervision budget ([aborted]) or every chain was dropped, otherwise
    [Healthy]. *)

(** A measurement campaign: one update interval, end to end.

    Mirrors the paper's §4.3 procedure — install the two-phase Beacons at all
    sites, run the BGP world, collect the three projects' dumps, clean and
    label every (vantage point, prefix) stream, then run BeCAUSe and the
    heuristics on the labeled paths. *)

open Because_bgp

type params = {
  update_interval : float;  (** Seconds between Burst updates. *)
  burst_duration : float;   (** Paper: 2 h. *)
  break_duration : float;   (** Paper: 2 h (April) / 6 h (March). *)
  cycles : int;             (** Burst–Break pairs. *)
  lead_in : float;          (** Quiet time after the initial announcement. *)
  anchor_period : float;    (** Anchor oscillation period (2 h). *)
  noise : Because_collector.Noise.params;
  min_r_delta : float;
  match_threshold : float;
  infer_config : Because.Infer.config;
  run_inference : bool;
  background_prefixes : int;     (** Synthetic churn prefixes (Appendix A). *)
  background_mean_gap : float;   (** Mean seconds between churn updates. *)
  faults : Because_faults.Plan.t;
      (** Injected faults (session resets, link flaps, site and collector
          outages, lossy sessions).  {!Because_faults.Plan.empty} — the
          default — leaves the campaign bit-for-bit fault-free. *)
  min_path_support : int;
      (** Minimum observations crossing an AS before its posterior is
          trusted; below it the AS is demoted to C3 and listed in
          [outcome.insufficient].  Default 1 (no demotion). *)
  sim_jobs : int;
      (** Worker domains for the BGP simulation itself: the campaign's
          prefixes are partitioned into shards run in parallel
          ({!Because_sim.Sharded}).  At 1 — the default — the historical
          sequential event stream is preserved bit-for-bit; on a fault-free
          campaign every value of [sim_jobs] yields the identical outcome. *)
  sim_shards : int option;
      (** Simulation shard count, decoupled from [sim_jobs] ([None] — the
          default — means one shard per job, the historical behaviour).
          More shards than jobs queue on the domain pool, bounding peak
          live router state by the seat count while shrinking per-shard
          state.  Fault-free outcomes are shard-invariant
          (property-tested). *)
  telemetry : Because_telemetry.Registry.t;
      (** Observability sink threaded through every phase: campaign phase
          spans, simulator traffic/RFD counters and table gauges, fault
          planned/realized counters, and per-chain sampler metrics.
          {!Because_telemetry.Registry.disabled} — the default — costs one
          predictable branch per record site and leaves the outcome
          bit-for-bit identical (property-tested). *)
}

val default_params : update_interval:float -> params
(** 2-hour Bursts and Breaks, 4 cycles, realistic noise, inference on,
    no background churn, no faults. *)

type stimulus = {
  schedules : Because_beacon.Schedule.t list;  (** One per interval. *)
  sites : Because_beacon.Site.t list;
  campaign_end : float;
  script : Because_sim.Script.t;
}

type outcome = {
  params : params;
  schedule : Because_beacon.Schedule.t;   (** The oscillating schedule. *)
  sites : Because_beacon.Site.t list;
  records : Because_collector.Dump.record list;
  labeled : Because_labeling.Label.labeled_path list;
  windows : (float * float * float) list;
  oscillating : Prefix.Set.t;
  anchors : Prefix.Set.t;
  result : Because.Infer.result option;   (** [None] when inference was off or no paths labeled. *)
  posterior : Because.Posterior.t option;
      (** [result]'s marginal summaries, the ones the categories came
          from; [None] with [result]. *)
  categories_step1 : (Asn.t * Because.Categorize.t) list;
      (** Before pinpointing (Fig. 12's "consistent" bars). *)
  categories : (Asn.t * Because.Categorize.t) list;
      (** After pinpointing (Fig. 12's full bars). *)
  promotions : Because.Pinpoint.promotion list;
  heuristic_verdicts : Because_heuristics.Combine.verdict list;
  deliveries : int;          (** Total updates delivered in the simulation. *)
  events : int;              (** Total simulator events processed. *)
  shard_events : int array;
      (** Events processed per simulation shard — the load-balance view;
          [\[| events |\]] when [sim_jobs = 1]. *)
  campaign_end : float;
  fault_log : (float * Because_faults.Injector.injected) list;
      (** Every injected fault that materialized, chronological: session
          teardowns/recoveries, link transitions, lost/duplicated updates,
          site and collector outage windows.  Empty on a fault-free run. *)
  insufficient : Asn.t list;
      (** ASs demoted to C3 because fewer than [min_path_support]
          observations survived the faults. *)
  warnings : string list;
      (** Sampler-divergence notes propagated from {!Because.Infer}. *)
  telemetry : Because_telemetry.Snapshot.t option;
      (** Merged metrics/span snapshot of the whole campaign, [Some] iff
          [params.telemetry] was enabled.  {!run_multi} outcomes share one
          snapshot taken after the last interval's inference. *)
  status : Because_recover.Supervise.status;
      (** Campaign health verdict, driving the CLI exit-code contract
          (0/3/4 via {!Because_recover.Supervise.exit_code}): [Degraded]
          when any chain was budget-aborted or every chain died (fall back
          to heuristic localization); [Insufficient] when inference was
          requested but no labeled observations survived; [Healthy]
          otherwise.  Recovery/restore notes never appear here — a resumed
          campaign's outcome equals the uninterrupted one bit-for-bit. *)
}

val stimulus :
  World.t -> params -> intervals:float list -> churn_rng:Because_stats.Rng.t ->
  stimulus
(** What {!run_multi} simulates, in scheduling order: [params.faults],
    every Beacon site (one oscillating prefix per interval plus the anchor),
    then the background churn drawn from [churn_rng]. *)

val run : ?recovery:Recovery.t -> World.t -> params -> outcome
(** [recovery] attaches a durable checkpoint store once the stimulus is
    built and fingerprinted: finished simulation shards are skipped on
    resume, partial MCMC chains continue mid-stream, and the interrupted
    run's outcome is bit-for-bit the uninterrupted one
    (property-tested, including kills at arbitrary save points). *)

val with_jobs : ?n_chains:int -> ?sim_jobs:int -> params -> int -> params
(** [with_jobs params jobs] spreads each interval's inference over [jobs]
    worker domains (and optionally [n_chains] independent chains per
    sampler) by rewriting [params.infer_config]; [sim_jobs] additionally
    shards the simulation itself.  Campaign outcomes are bit-for-bit
    independent of [jobs] — only wall-clock changes. *)

val run_multi :
  ?recovery:Recovery.t -> World.t -> params -> intervals:float list -> outcome list
(** One simulation carrying several oscillating prefixes per site — the
    paper's actual setup (March: 1/2/3-minute prefixes together, April:
    5/10/15).  Each site announces one prefix per interval plus the anchor;
    the shared dump is then labeled and inferred per interval, one outcome
    per interval in input order.  [params.update_interval] is ignored. *)

val horizon : params -> float
(** The campaign end time a single-interval {!run} will use — the window
    within which injected faults can land. *)

val draw_faults :
  World.t -> params -> Because_faults.Plan.severity -> Because_faults.Plan.t
(** Draw a seeded fault plan for this world (its own RNG stream, so the
    same world seed and severity reproduce the same plan) covering the
    world's links, Beacon sites and vantage points over {!horizon}. *)

val windows_of : outcome -> Prefix.t -> (float * float * float) list
(** Burst–Break windows of an oscillating prefix; [\[\]] otherwise. *)

val observations : outcome -> (Asn.t list * bool) list
val because_damping : outcome -> Asn.Set.t
(** ASs flagged Category 4/5 by the full BeCAUSe procedure. *)

val heuristic_damping : outcome -> Asn.Set.t

val universe : outcome -> Asn.Set.t
(** Every AS appearing on a labeled path — the set the campaign can make
    statements about. *)

val site_of_prefix : outcome -> Prefix.t -> int option
(** Which Beacon site announced a prefix. *)

val propagation_samples : outcome -> role:[ `Anchor | `Oscillating ] -> float array
(** Per announcement record: observation time − encoded Beacon send time
    (the Fig. 8 propagation measurement). *)

(** The always-on tomography service: a supervised scheduler multiplexing
    many concurrent campaigns over worker domains, with bounded admission,
    durable state and graceful drain.

    Lifecycle:
    {ul
    {- {!create} (fresh state directory) or {!load} (warm start from a
       previous generation's durable queue and per-campaign checkpoints);}
    {- {!submit} specs — admitted into the bounded queue and persisted, or
       rejected with a typed {!reason};}
    {- {!start} spawns the worker domains; each claims the oldest queued
       campaign and runs it under {!Because_recover.Supervise} budgets,
       retrying failed attempts after a short sleep (10 ms, doubling, at
       most 1 s), isolated from its siblings: a campaign that
       exhausts its retry budget finishes [Insufficient] while the rest of
       the service keeps running and accepting work;}
    {- {!drain} (SIGTERM path) checkpoints every in-flight chain at its
       next sweep boundary and persists the queue; {!stop_when_idle} lets
       the queue run dry instead; {!join} waits for the workers and
       returns the {!verdict}.}}

    Durability contract: after a drain — or a hard kill at an arbitrary
    checkpoint boundary (the [kill_after_saves] chaos hook) — a {!load} of
    the same state directory resumes every interrupted campaign and
    completes it bit-for-bit identical to an uninterrupted run, reports
    included.  Completed campaigns are never re-run: their results ride in
    the durable queue snapshot.  Reports are rewritten in place, not
    replaced by rename, so a crash can tear one; {!load} rebuilds it from
    the snapshot. *)

type config = {
  state_dir : string;  (** Root of all durable state. *)
  limit : int;
      (** Admission bound on pending (queued or interrupted) campaigns. *)
  jobs : int;          (** Worker domains (concurrent campaigns). *)
  campaign_jobs : int;
      (** Inference pool size inside each campaign; outcomes are
          jobs-invariant, so 1 (run on the worker domain) is the safe
          default when [jobs > 1]. *)
  max_attempts : int;
      (** Runs per campaign before giving up; failed attempt [n] is
          followed by a sleep of min(1 s, 10 ms * 2^(n-1)).  Durable
          writes — checkpoints, reports, status files — retry under
          {!Because_recover.Io.retry}. *)
  every_sweeps : int option;  (** Chain checkpoint cadence. *)
  chain_deadline_s : float option;  (** Per-chain wall-clock budget. *)
  sweep_budget : int option;        (** Per-chain sweep budget. *)
  telemetry : Because_telemetry.Registry.t;
  kill_after_saves : int option;
      (** Chaos: SIGKILL the whole service (every campaign dies at its
          next checkpoint write) after this many saves service-wide.
          Test/soak only. *)
  chaos : (id:string -> attempt:int -> int option) option;
      (** Chaos: per-campaign [kill_after_saves] budget by id and attempt
          (1-based) — [Some n] makes that attempt crash after [n] saves,
          exercising retry and isolation.  Test/soak only. *)
}

val default_config : state_dir:string -> config
(** limit 16, 1 worker, 1 campaign job, 3 attempts,
    checkpoint every 25 sweeps, no budgets, telemetry disabled, no chaos. *)

type t

type verdict =
  | Completed  (** Queue ran dry; every campaign reached a final state. *)
  | Drained    (** Graceful drain: interrupted work checkpointed and requeued. *)
  | Killed     (** Chaos kill tripped: state as a crash left it. *)

val create : config -> t
(** Fresh service: wipes any previous durable state under [state_dir].
    Raises [Invalid_argument] unless [jobs], [max_attempts] and [limit]
    are all [>= 1]. *)

val load : config -> t
(** Warm start: restore the durable queue — completed campaigns keep
    their results (a report that is missing, unreadable or differs from
    {!Store.report} of its entry is rewritten; one that cannot be is a
    warning), pending and
    interrupted ones are requeued for (resumed) execution; a requeued
    streaming epoch keeps the previous epoch's estimates to warm-start
    from.  A corrupt or
    mismatched snapshot is quarantined by the checkpoint layer and the
    service starts cold rather than crashing; see {!warnings}. *)

val config : t -> config
val store : t -> Store.t

type reason =
  | Queue_full of { limit : int }  (** Backpressure: resubmit later. *)
  | Duplicate of { id : string }   (** Id already queued, running or done. *)
  | Draining  (** Service is draining or stopped; no new work accepted. *)
  | Invalid of string              (** Spec failed {!Spec.validate}. *)

val reason_to_string : reason -> string

val submit : t -> Spec.t -> (int, reason) result
(** Validate, admit, record and persist one campaign submission.
    [Ok seq] is the campaign's admission sequence number — its FIFO
    position, one past the highest in the store ({!Store.next_seq}), so
    never reused, across warm starts too.  Rejections are checked in
    order: draining, invalid spec, duplicate id, queue full.  An id stays
    taken after its campaign finishes, since its report and checkpoint
    directory keep existing.  Re-submitting a {e completed streaming}
    spec (same id, same line, [obs] set) is not a duplicate: the entry
    re-enters the queue as its next epoch at its original sequence
    number, to be warm-started from the previous epoch's estimates, which
    the entry keeps until the new epoch finishes. *)

val generation : t -> int
(** Monotonic store generation: bumped on every observable mutation
    (submission, claim, completion, interruption, drain).  The query
    plane renders each document at most once per generation and serves
    cached bytes — stamped with the generation read {e before} the
    render — lock-free in between. *)

val status_json : t -> string
(** Render the {!Store.to_json} status document (takes the mutex). *)

val matrix_text : t -> string
(** Render the live suspect matrix ({!Store.matrix}; takes the mutex). *)

val metrics_prom : t -> string
(** Render the Prometheus exposition of the telemetry registry (empty on
    a disabled registry). *)

val report_for : t -> id:string -> [ `Unknown | `Pending | `Done of string ]
(** The campaign's report: [`Unknown] for an id never admitted,
    [`Pending] while queued/running/interrupted, [`Done report]
    afterwards. *)

val estimates_snapshot : t -> (int * string) list
(** One [(asn, json-object)] row per estimate across every campaign, in
    admission order — the query plane's per-AS lookup table. *)

val pending : t -> int
(** Queued and interrupted campaigns ({!Store.depth}). *)

val running : t -> int

val draining : t -> bool
(** True once {!drain} was called or the process-wide
    {!Because_recover.Supervise} drain flag is up (a signal handler can
    only safely set that flag — one atomic store — so the service treats
    it as a drain request everywhere it checks its own). *)

val killed : t -> bool
(** True once the chaos kill tripped; the service is dead — {!load} a
    fresh one to resume its work. *)

val start : t -> unit
(** Spawn the worker domains.  Raises [Invalid_argument] if workers are
    already running or the service was chaos-killed. *)

val stop_when_idle : t -> unit
(** Tell idle workers to exit once the queue is empty instead of waiting
    for more submissions. *)

val drain : t -> unit
(** Graceful shutdown: reject new submissions, stop claiming queued work,
    ask every in-flight chain (via {!Because_recover.Supervise.request_drain})
    to checkpoint and stop at its next sweep boundary.  Idempotent and
    async-signal-safe apart from the queue persistence done later by the
    interrupted workers themselves. *)

val join : t -> verdict
(** Wait for every worker domain, write the final status files, return
    the verdict. *)

val run_until_idle : t -> verdict
(** [start] + [stop_when_idle] + [join]. *)

val reset_drain : t -> unit
(** Clear the service and process-wide drain flags so a new generation
    (or the next test) starts undrained.  Requires the workers to be
    joined. *)

val rollup : t -> Because_recover.Supervise.status
val exit_code : t -> verdict -> int
(** The CLI contract: [Completed] maps through
    {!Because_recover.Supervise.exit_code} (0/3/4); [Drained] and
    [Killed] are 5 — interrupted but checkpointed, rerun to resume. *)

val warnings : t -> string list
(** Recovery notes (quarantines, fallbacks, resumed chains) prefixed with
    the campaign id, plus queue-store notes; oldest first.  Never part of
    results — a resumed service's reports equal an uninterrupted one's. *)

val write_status : t -> unit
(** Atomically (re)write [status.json] (see {!Store.to_json}) and — when
    telemetry is enabled — [metrics.prom] under [state_dir], each only if
    its bytes differ from what this service last wrote there ({!join}
    always writes both). *)

val report_path : t -> id:string -> string
val status_path : t -> string
val metrics_path : t -> string

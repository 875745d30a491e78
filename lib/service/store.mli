(** In-memory results store: the one record of every campaign the service
    has seen — its admission sequence number, queue/health state and
    latest per-AS damping-probability estimates — plus the service-level
    rollup, what a status endpoint would serve.  The submission queue is
    a view of it: the pending campaigns are the [Queued] and
    [Interrupted] entries, claimed lowest sequence first.

    Entries are mutated only by the service (under its mutex); readers go
    through the service's snapshot functions. *)

open Because_bgp

type estimate = {
  asn : Asn.t;
  mean : float;       (** Posterior mean damping probability. *)
  lo : float;         (** 95 % HDPI lower edge. *)
  hi : float;         (** 95 % HDPI upper edge. *)
  category : int;     (** Final category 1-5 (after pinpointing). *)
  damping : bool;     (** Category 4/5 — flagged as damping. *)
}

type health =
  | Queued
  | Running
  | Interrupted
      (** Drained or crashed mid-run with a durable checkpoint; a warm
          start resumes it bit-for-bit. *)
  | Done of Because_recover.Supervise.status

val health_label : health -> string
(** [queued], [running], [interrupted], or the
    {!Because_recover.Supervise.status_label} ([healthy] / [degraded] /
    [insufficient]). *)

type entry = {
  spec : Spec.t;
  seq : int;
      (** Admission sequence number: FIFO position, never reused (see
          {!next_seq}). *)
  mutable health : health;
  mutable attempts : int;
  mutable estimates : estimate array;
  mutable queue_wait_s : float;  (** Submit-to-claim latency, seconds. *)
  mutable epoch : int;
      (** Streaming campaigns: how many times this id has been (re-)run;
          always 1 for classic campaigns. *)
  mutable warm : bool;
      (** Whether the current epoch warm-started from a posterior seed. *)
  mutable gate_sweeps : int option;
      (** Sweeps (burn-in + gated draws) the last epoch needed to pass the
          R̂ convergence gate; [None] when unknown or never passed. *)
  mutable obs_count : int;
      (** Observations read from the spool file by the last epoch. *)
  mutable submitted_ns : int64 option;
      (** Monotonic-clock time of the last (re-)submission in this
          process; [None] for entries restored by a warm start.  Never
          persisted. *)
}

type t

val create : unit -> t
val add : t -> Spec.t -> seq:int -> entry
(** Raises [Invalid_argument] on a duplicate id (admission dedups first). *)

val find : t -> id:string -> entry option
val entries : t -> entry list  (** Ascending admission sequence. *)

val next_seq : t -> int
(** One past the highest sequence number of any entry (0 when empty), so
    a sequence number is never reused — finished campaigns included. *)

val depth : t -> int
(** Pending entries: [Queued] or [Interrupted]. *)

val running : t -> int
(** [Running] entries. *)

val next_pending : t -> entry option
(** The lowest-sequence pending entry — the queue's head. *)

val counts : t -> (string * int) list
(** Health-label histogram over all entries, fixed label order. *)

val rollup : t -> Because_recover.Supervise.status
(** Service-level verdict over completed campaigns: [Insufficient] if any
    finished insufficient, else [Degraded] if any finished degraded, else
    [Healthy]; reasons are prefixed with the campaign id. *)

val estimates_of_result :
  ?posterior:Because.Posterior.t ->
  Because.Infer.result ->
  categories:(Asn.t * Because.Categorize.t) list ->
  estimate array
(** Per-AS pooled marginals of [posterior] (default:
    {!Because.Posterior.summarize}[ result]) joined with final categories;
    [\[||\]] when no sampler run survived.  The streaming path passes the
    summary its categories came from. *)

val estimates_of_outcome :
  Because_scenario.Campaign.outcome -> estimate array
(** Per-AS pooled marginals of the campaign's posterior
    ([outcome.posterior]) joined with the final categories; [\[||\]] when
    inference produced nothing. *)

val report : entry -> string
(** The campaign's durable report: spec line, status, and the sorted
    estimate table.  Deterministic — no timestamps, attempt counts or
    host state — so an interrupted-and-resumed service reproduces the
    uninterrupted report byte-for-byte. *)

val to_json : t -> draining:bool -> limit:int -> string
(** Service status document: rollup, queue stats ({!depth} against
    [limit]), per-campaign health and flagged ASs. *)

val matrix : t -> string
(** Compact per-campaign text table (id, health, attempts, flagged ASs) —
    the operator's at-a-glance view. *)

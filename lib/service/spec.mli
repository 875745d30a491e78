(** One campaign submission: everything the service needs to rebuild the
    campaign from scratch, deterministically, in a single line of text.

    The line format ([key=value] pairs, space-separated) doubles as the
    spool-file format of the service daemon and as the durable encoding
    inside the queue checkpoint — a spec round-trips through
    {!to_line}/{!of_line} without loss, so a warm-started service re-derives
    bit-for-bit the campaign an interrupted one was running. *)

type t = {
  id : string;
      (** Unique campaign name; doubles as the checkpoint sub-directory and
          report file name, so it is restricted to [\[A-Za-z0-9._-\]] and
          starts with a letter or digit. *)
  seed : int;            (** World seed — fixes topology, deployment, faults. *)
  transit : int;         (** Transit ASs in the generated topology. *)
  stub : int;            (** Stub ASs. *)
  vantage_hosts : int;   (** ASs hosting collector sessions. *)
  interval_min : float;  (** Beacon update interval, minutes. *)
  cycles : int;          (** Burst–Break pairs. *)
  faults : string;       (** ["none"], ["mild"], ["realistic"] or ["severe"]. *)
  chains : int;          (** Independent MCMC chains per sampler. *)
  samples : int;         (** Retained draws per chain. *)
  burn_in : int;         (** Discarded adaptation draws per chain. *)
  min_path_support : int;
  obs : string option;
      (** Streaming campaigns: path to a labeled-observation spool file
          (one [rfd|clean ASN ASN ...] path per line) that may grow between
          runs.  When set, the service skips the simulator and infers
          directly from the file; re-submitting the same spec after it
          completes starts a new epoch that warm-starts from the previous
          epoch's posterior.  [None] — the default — is the classic
          simulate-then-infer campaign, line format unchanged. *)
}

val default : id:string -> t
(** A small-but-real campaign: seed 42, 12 transit / 30 stub / 8 vantage
    hosts, 1-minute interval, 1 cycle, no faults, 1 chain of 400 samples
    (200 burn-in). *)

val validate : t -> (t, string) result
(** Check the id alphabet and every numeric range; [Error] carries a
    human-readable reason (surfaced as a {!Service.reason} rejection). *)

val severity : t -> Because_faults.Plan.severity option
(** [None] for ["none"]; raises [Invalid_argument] on an unknown name
    ({!validate} rejects those first). *)

val to_line : t -> string
val of_line : string -> (t, string) result
(** Parse a [key=value] line; unknown keys and malformed values are
    [Error]s, missing keys fall back to {!default} (the id is required). *)

val equal : t -> t -> bool

val world : t -> Because_scenario.World.t
(** Build the campaign's world — deterministic in the spec alone. *)

val params :
  t ->
  world:Because_scenario.World.t ->
  jobs:int ->
  Because_scenario.Campaign.params
(** Campaign parameters for this spec: [jobs] worker domains for the
    inference pool (outcomes are jobs-invariant), faults drawn from the
    spec's severity against [world].  Supervision budgets, telemetry and
    checkpointing are layered on by the service, not here. *)

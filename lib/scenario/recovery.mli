(** Campaign-level durable recovery.

    One {!Because_recover.Checkpoint} store shared by everything a campaign
    run produces incrementally: finished simulation shards, in-flight MCMC
    chain states and the final telemetry snapshot.  The store is bound to a
    fingerprint of the campaign's full stimulus, so snapshots can only
    resume the exact campaign that wrote them — mismatches quarantine the
    old snapshots and start fresh.

    Construction is cheap and pure; nothing touches the filesystem until
    {!attach} is called (which {!Campaign.run} does once the stimulus is
    built and fingerprinted). *)

exception Killed
(** Raised by a configured [kill_after_saves] test hook {e before} the
    write that would have exceeded the budget — simulating a hard crash at
    an arbitrary checkpoint boundary.  Never raised in production use. *)

type t

val create :
  dir:string ->
  ?resume:bool ->
  ?every_sweeps:int ->
  ?every_seconds:float ->
  ?kill_after_saves:int ->
  ?kill_switch:(unit -> bool) ->
  unit ->
  t
(** [resume] (default [false]): a fresh run clears previous snapshots on
    {!attach} (quarantined [*.corrupt-N] files are kept); a resuming run
    reads them.  [every_sweeps] / [every_seconds] set the chain snapshot
    cadence ([every_seconds] defaults to
    {!Because_recover.Chain_ckpt.default_every_seconds}).
    [kill_after_saves] arms the {!Killed} test hook on this store's own
    save counter; [kill_switch] is its service-wide sibling — consulted
    before every save, it lets one shared counter kill every campaign of a
    multi-campaign service at an arbitrary point (the whole-service crash
    harness). *)

val attach : t -> fingerprint:string -> unit
(** Open (creating if needed) the store under [dir], pinned to
    [fingerprint].  Wipes prior snapshots first unless resuming. *)

val dir : t -> string

val warnings : t -> string list
(** The store's recovery notes (corruption, quarantine, fallback), oldest
    first.  These never enter the campaign outcome — a resumed run must
    equal a clean one — and are surfaced on stderr by the CLI. *)

val saves : t -> int
val restores : t -> int
val fallbacks : t -> int

val sim_hooks : t -> Because_sim.Sharded.checkpoint_hooks
(** Shard save/load keyed [sim.shard<i>of<n>].  A snapshot that passes the
    CRC but fails to decode is quarantined and falls back to the previous
    snapshot (re-simulating when there is none), like a chain snapshot. *)

val chain_hooks : t -> namespace:string -> Because_recover.Chain_ckpt.hooks
(** Chain snapshot hooks with keys prefixed by [namespace] (one namespace
    per Beacon interval), on this store's cadence. *)

val save_telemetry : t -> Because_telemetry.Snapshot.t -> unit
(** Persist the final telemetry snapshot as JSON under [telemetry.json]. *)

(** {2 Codec internals, exposed for round-trip tests} *)

val encode_shard_result : Because_sim.Sharded.shard_result -> string

val decode_shard_result : string -> Because_sim.Sharded.shard_result
(** Raises {!Because_recover.Codec.Malformed} on bad input. *)

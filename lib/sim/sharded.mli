(** Per-prefix sharded, domain-parallel simulation driver.

    BGP prefixes never interact inside the simulator: every router table
    (adj-RIB-in, RFD state, loc-RIB, adj-RIB-out, MRAI gates, feed
    de-duplication) is keyed by prefix, and the session layer is
    prefix-agnostic — link and session faults evolve identically whatever
    traffic crosses them.  A campaign therefore decomposes exactly: give
    each prefix of a {!Script} its own shard, build one {!Network} per shard
    from the shared immutable router configs and delay function, replay the
    full fault plan into each shard, run the shards on the shared domain
    pool, and merge.

    Each network holds one prefix's routes, and its event queue one
    prefix's in-flight events.  [jobs] only bounds how many shard networks
    are live at once: the work-stealing pool runs at most [jobs] of them and
    queues the rest.

    The merged result is the same for any [jobs], and equals one network
    replaying the whole script (property-tested), faults and impairments
    included, because every loss/duplication draw is keyed by its link,
    prefix and delivery index rather than taken from a shared stream.  Only
    [events] differs from the one network: every shard replays the link
    and session faults. *)

open Because_bgp

(** One shard's collected vantage feeds, ascending ASN. *)
type feed_store = (Asn.t * (float * Update.t) list) list

type result = {
  stats : Network.stats;
      (** Traffic counters summed over shards; session transition counters
          counted once (identical in every shard). *)
  fault_log : (float * Network.fault_event) list;
      (** Chronological; link/session transitions de-duplicated across
          shards, update loss/duplication kept per shard, equal times
          ordered by prefix rank after the link/session transitions. *)
  events : int;  (** Total simulator events processed, summed over shards. *)
  shards : int;  (** Number of shards actually run. *)
  shard_events : int array;
      (** Events processed per shard (length [shards]) — the load-balance
          view behind the [sim.shard_events] histogram and the Chrome trace
          lanes. *)
  monitored : Asn.Set.t;  (** Vantage ASs the feeds were collected for. *)
  stores : feed_store array;
      (** Per-shard feed stores (length [shards], indexed by the prefix's
          first-touch rank); consume via {!feed} / {!feeds}, which merge
          lazily. *)
}

val feed : result -> Asn.t -> (float * Update.t) list
(** Chronological observations of one vantage, merged across shards on
    demand: ordered on time, cross-prefix ties by first-touch rank, each
    prefix's own entries in their recorded order.  A k-way merge of the
    per-shard lists, each already in time order. *)

val feeds : result -> (Asn.t * (float * Update.t) list) list
(** Every monitored vantage's merged feed, ascending ASN. *)

type shard_result = {
  shard_feeds : feed_store;
  shard_stats : Network.stats;
  shard_fault_log : (float * Network.fault_event) list;
  shard_events_count : int;
}
(** Everything one finished shard contributes to the merge — the unit of
    simulation checkpointing. *)

type checkpoint_hooks = {
  load_shard : shard:int -> shards:int -> shard_result option;
  save_shard : shard:int -> shards:int -> shard_result -> unit;
}
(** Durable-storage callbacks supplied by the recovery layer.  Keys carry
    the shard count, which is the prefix count: a result saved under
    another count (a store written by a build that grouped prefixes) was
    computed under another partition and is not reused.  [save_shard] runs
    inside worker domains and must be thread-safe. *)

val run :
  ?fault_seed:int ->
  ?telemetry:Because_telemetry.Registry.t ->
  ?checkpoint:checkpoint_hooks ->
  jobs:int ->
  configs:Router.config list ->
  delay:(from_asn:Asn.t -> to_asn:Asn.t -> float) ->
  monitored:Asn.Set.t ->
  until:float ->
  Script.t ->
  result
(** Replay [script] and run to [until] over one shard per prefix
    ({!Script.partition}); an empty script runs as one shard.  At most
    [jobs] shard networks are live at once; the rest queue on the pool.
    [fault_seed] (default 0) keys every shard's impairment draws
    ({!Network.create}).  Raises [Invalid_argument] if [jobs < 1].

    [checkpoint] short-circuits finished shards: a shard whose saved result
    loads is returned without building a network or replaying anything,
    and each freshly simulated shard is saved on completion.
    Restored shards count into the [sim.shards_restored] telemetry counter
    and skip their replay span.

    [telemetry] (default {!Because_telemetry.Registry.disabled}) receives,
    per shard and from inside the worker domain that ran it: a
    [sim.shard<i>.replay] span, the [sim.*] traffic/RFD counters and one
    [sim.shard_events] histogram observation.  Once all shards are done, the
    calling domain sets the [sim.tables.*] gauges (summed over the shards it
    simulated) and [sim.max_queue_depth] (their maximum); the cross-shard
    merge runs under a [sim.merge] span.  Telemetry never touches the fault
    draws or event order, so a disabled registry is bit-for-bit free
    (property-tested). *)

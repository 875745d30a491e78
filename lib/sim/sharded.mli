(** Per-prefix sharded, domain-parallel simulation driver.

    BGP prefixes never interact inside the simulator: every router table
    (adj-RIB-in, RFD state, loc-RIB, adj-RIB-out, MRAI gates, feed
    de-duplication) is keyed by prefix, and the session layer is
    prefix-agnostic — link and session faults evolve identically whatever
    traffic crosses them.  A campaign therefore decomposes exactly: partition
    the prefix set of a {!Script} into shards, build one {!Network} per shard
    from the shared immutable router configs and delay function, replay the
    full fault plan into each shard, run the shards on the shared domain
    pool, and merge.

    Shards may outnumber pool seats: the work-stealing pool runs at most
    [jobs] shard networks at a time and queues the rest, so peak live router
    state is bounded by the seat count while per-shard state shrinks with
    the shard count.

    With no faults and no impairments the merged result is bit-for-bit
    identical to the sequential run for any [jobs] and any [shards]
    (property-tested); with faults, per-shard loss/duplication draws come
    from pre-split RNG streams so the outcome is deterministic for a given
    shard count. *)

open Because_bgp

(** One shard's collected vantage feeds, ascending ASN. *)
type feed_store = (Asn.t * (float * Update.t) list) list

type result = {
  stats : Network.stats;
      (** Traffic counters summed over shards; session transition counters
          counted once (identical in every shard). *)
  fault_log : (float * Network.fault_event) list;
      (** Chronological; link/session transitions de-duplicated across
          shards, update loss/duplication kept per shard. *)
  events : int;  (** Total simulator events processed, summed over shards. *)
  shards : int;  (** Number of shards actually run. *)
  shard_events : int array;
      (** Events processed per shard (length [shards]) — the load-balance
          view the telemetry shard table and Chrome trace lanes expose. *)
  monitored : Asn.Set.t;  (** Vantage ASs the feeds were collected for. *)
  rank_of : Prefix.t -> int;
      (** First-touch script rank — the cross-prefix tie-break key. *)
  stores : feed_store array;
      (** Per-shard feed stores (length [shards]); consume via {!feed} /
          {!feeds}, which merge lazily. *)
}

val feed : result -> Asn.t -> (float * Update.t) list
(** Chronological observations of one vantage, merged across shards on
    demand (stable sort on time, cross-prefix ties by first-touch rank) —
    identical to the sequential network's feed. *)

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
    the shard count because a different [shards] partitions prefixes
    differently — a saved result is only valid for the exact partition it
    was computed under.  [save_shard] runs inside worker domains and must
    be thread-safe. *)

val run :
  ?fault_rng:Because_stats.Rng.t ->
  ?telemetry:Because_telemetry.Registry.t ->
  ?checkpoint:checkpoint_hooks ->
  ?shards:int ->
  jobs:int ->
  configs:Router.config list ->
  delay:(from_asn:Asn.t -> to_asn:Asn.t -> float) ->
  monitored:Asn.Set.t ->
  until:float ->
  Script.t ->
  result
(** Replay [script] and run to [until] over
    [min (max 1 shards) n_prefixes] shards, where [shards] defaults to
    [jobs].  [jobs = 1] with default sharding replays into a single network
    in recording order, preserving the historical sequential event stream
    exactly.  [shards > jobs] queues the excess on the pool — at most [jobs]
    shard networks are live at once.  [fault_rng] is split into one
    independent stream per shard (so with faults the outcome is a function
    of the shard count, as it previously was of [jobs]).  Raises
    [Invalid_argument] if [jobs < 1] or [shards < 1].

    [checkpoint] short-circuits finished shards: a shard whose saved result
    loads is returned without building a network or replaying anything (its
    pre-split fault stream is simply never drawn — skipping cannot perturb
    other shards), and each freshly simulated shard is saved on completion.
    Restored shards count into the [sim.shards_restored] telemetry counter
    and skip their replay span.

    [telemetry] (default {!Because_telemetry.Registry.disabled}) receives,
    per shard and from inside the worker domain that ran it: a
    [sim.shard<i>.replay] span, the [sim.*] traffic/RFD counters, table-size
    gauges and the per-shard event gauge; the cross-shard merge runs under a
    [sim.merge] span.  Telemetry never touches the RNG streams or event
    order, so a disabled registry is bit-for-bit free (property-tested). *)

(** Update dumps: the MRT-like records the analysis pipeline consumes.

    {!of_feeds} turns the monitored full feeds of a finished simulation
    into per-vantage-point dump records, adding project-specific export
    latency and applying {!Noise}. *)

open Because_bgp

type record = {
  received_at : float;  (** When the host AS's loc-RIB changed. *)
  export_at : float;    (** When the record appears in the project dump. *)
  vp : Vantage.t;
  update : Update.t;
}

val of_feeds :
  ?gaps_of:(int -> (float * float) list) ->
  Because_stats.Rng.t ->
  feed_of:(Asn.t -> (float * Update.t) list) ->
  vantages:Vantage.t list ->
  noise:Noise.params ->
  campaign_end:float ->
  unit ->
  record list
(** All records across all vantage points, sorted by [export_at].
    [feed_of] maps a host AS to its chronological full-feed observations
    (e.g. {!Because_sim.Network.feed} or {!Because_sim.Sharded.feed}).

    [gaps_of vp_id] returns extra collector-outage windows for a vantage
    point (e.g. from an injected fault plan); records received inside any
    window — drawn from [noise] or supplied here — are dropped, truncating
    that feed.  Defaults to no extra gaps.

    Noise draws are made per vantage in list order, then per feed record —
    identical feeds therefore yield identical dumps for a given [rng]. *)

val prefixes : record list -> Prefix.Set.t
val vp_ids : record list -> int list

val usable : record -> bool
(** The paper's cleaning step, for one record: false for an announcement
    whose aggregator IP is missing or invalid (its encoded send timestamp
    is unusable), true otherwise.  Withdrawals are kept. *)

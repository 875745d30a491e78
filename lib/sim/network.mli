(** AS-level BGP network simulation.

    Wires one {!Because_bgp.Router} per AS to the event {!Engine}: [Send]
    actions become delayed deliveries over the inter-AS link, timer requests
    become future events, and [Feed] actions are recorded — timestamped — for
    every monitored AS, forming the raw vantage-point update streams the
    measurement pipeline consumes.

    {2 Fault layer}

    Sessions are implicitly Established until a fault first touches their
    link; from then on the link carries two {!Because_bgp.Session} FSMs (one
    per endpoint) driven through the event loop — transport teardown on
    {!schedule_link_down}/{!schedule_session_reset}, reconnect and OPEN /
    KEEPALIVE exchange on recovery, with route withdrawal on [Session_down]
    and full re-advertisement on [Session_up].  Updates in flight over a
    non-established session are lost, and per-link loss/duplication
    impairments can be installed with {!set_link_impairment}.  Every fault
    transition is recorded in {!fault_log}.  A campaign that injects no
    faults never creates a session record, so its event stream — and thus
    its outcome — is bit-for-bit the fault-free one. *)

open Because_bgp

type timer_kind = Hold | Keepalive | Connect_retry

type event =
  | Deliver of { from_asn : Asn.t; to_asn : Asn.t; update : Update.t }
  | Reuse_check of { owner : Asn.t; neighbor : Asn.t; prefix : Prefix.t }
  | Mrai_expiry of { owner : Asn.t; neighbor : Asn.t; prefix : Prefix.t }
  | Announce_origin of { origin : Asn.t; prefix : Prefix.t }
      (** Beacon announcement: stamped with an aggregator carrying the send
          time. *)
  | Withdraw_origin of { origin : Asn.t; prefix : Prefix.t }
  | Link_fault of { a : Asn.t; b : Asn.t; up : bool }
      (** Fault start/stop: the physical link between [a] and [b] goes down
          ([up = false]) or comes back ([up = true]). *)
  | Session_reset of { a : Asn.t; b : Asn.t }
      (** Transport reset with the link staying up: both endpoints tear down
          and immediately re-establish. *)
  | Fsm_deliver of { owner : Asn.t; peer : Asn.t; fsm_event : Session.event }
      (** Session-layer message/transport event for [owner]'s FSM. *)
  | Fsm_timer of { owner : Asn.t; peer : Asn.t; kind : timer_kind; gen : int }
      (** Session timer expiry; stale unless [gen] matches the side's
          current generation. *)

(** What the fault layer did, for the campaign's outcome record. *)
type fault_event =
  | Fault_link_down of { a : Asn.t; b : Asn.t }
  | Fault_link_up of { a : Asn.t; b : Asn.t }
  | Fault_session_reset of { a : Asn.t; b : Asn.t }
  | Fault_session_down of { owner : Asn.t; peer : Asn.t; reason : string }
  | Fault_session_up of { owner : Asn.t; peer : Asn.t }
  | Fault_update_lost of { from_asn : Asn.t; to_asn : Asn.t }
  | Fault_update_duplicated of { from_asn : Asn.t; to_asn : Asn.t }

type stats = {
  mutable deliveries : int;      (** Updates delivered over sessions. *)
  mutable announcements : int;   (** ... of which announcements. *)
  mutable withdrawals : int;     (** ... of which withdrawals. *)
  mutable lost : int;            (** Updates dropped by faults/impairments. *)
  mutable duplicated : int;      (** Updates delivered twice. *)
  mutable session_drops : int;       (** [Session_down] transitions. *)
  mutable session_recoveries : int;  (** [Session_up] transitions. *)
}

type t

val create :
  ?fault_rng:Because_stats.Rng.t ->
  configs:Router.config list ->
  delay:(from_asn:Asn.t -> to_asn:Asn.t -> float) ->
  monitored:Asn.Set.t ->
  unit ->
  t
(** [delay] gives the one-way propagation delay of each directed session;
    [monitored] lists the ASs hosting a full-feed vantage-point session.
    [fault_rng] drives loss/duplication impairments (required before
    {!set_link_impairment} installs a non-zero rate). *)

val schedule_announce : t -> time:float -> origin:Asn.t -> Prefix.t -> unit
val schedule_withdraw : t -> time:float -> origin:Asn.t -> Prefix.t -> unit

val schedule_session_reset : t -> time:float -> a:Asn.t -> b:Asn.t -> unit
(** Reset the BGP session between neighbors [a] and [b] at [time]: routes
    learned over it are withdrawn (path re-exploration downstream) and the
    session re-establishes through the full FSM handshake. *)

val schedule_link_down : t -> time:float -> a:Asn.t -> b:Asn.t -> unit
(** Take the physical link down: sessions tear down and the endpoints keep
    retrying (connect-retry timer) until {!schedule_link_up}. *)

val schedule_link_up : t -> time:float -> a:Asn.t -> b:Asn.t -> unit

val set_link_impairment :
  t -> a:Asn.t -> b:Asn.t -> loss:float -> duplication:float -> unit
(** Install per-update loss/duplication probabilities on the session between
    [a] and [b].  Requires a fault rng when either rate is positive. *)

val session_established : t -> a:Asn.t -> b:Asn.t -> bool
(** False while the session is torn down or re-handshaking.  Links never
    touched by a fault are implicitly established. *)

val run : t -> until:float -> unit
(** Process events up to [until] (inclusive of events at [until]). *)

val now : t -> float
val router : t -> Asn.t -> Router.t
val stats : t -> stats

val events_processed : t -> int
(** Total simulator events handled — the throughput denominator reported by
    the [sim] bench and surfaced in [Campaign.outcome.events]. *)

val max_queue_depth : t -> int
(** High-water mark of the event queue over the run so far. *)

val rfd_stats : t -> int * int
(** [(suppressions, releases)] summed over every router — the network-wide
    RFD transition tallies.  Walks the router table; call after the run. *)

val table_totals : t -> Router.table_sizes
(** Router cache-table entry counts summed over every router — the
    telemetry memory gauges.  Walks every router; call after the run. *)

val fault_log : t -> (float * fault_event) list
(** Every fault-layer transition, chronological. *)

val feed : t -> Asn.t -> (float * Update.t) list
(** Chronological full-feed observations of a monitored AS ([\[\]] when the
    AS is not monitored or saw nothing). *)

val monitored : t -> Asn.Set.t

(** An AS-level BGP speaker.

    Each AS is modelled as one router holding an adj-RIB-in per neighbor
    session, a loc-RIB, and an adj-RIB-out per neighbor — stored as one row
    per prefix, so that every entry point does a single prefix lookup —
    with:

    - Gao–Rexford route selection (customer > peer > provider local-pref,
      then shortest AS path, then lowest neighbor ASN);
    - valley-free export filtering;
    - per-session Route Flap Damping ({!Rfd}) scoped by
      {!Policy.rfd_scope} — a suppressed session's route is invisible to the
      decision process, which is what produces downstream withdrawals, path
      hunting, and the delayed re-advertisement of the RFD signature;
    - per-(neighbor, prefix) Minimum Route Advertisement Interval gating of
      announcements (withdrawals are sent immediately, per RFC 4271).

    The router is a pure event reactor: every entry point returns the
    {!action} list the caller (normally {!Because_sim.Network}) must
    perform — message deliveries, timer requests, and full-feed observations
    for an attached vantage point.  Only a router created as monitored
    emits {!Feed} actions (and records the per-prefix last observation
    that de-duplicates them).

    {2 Slot addressing}

    A neighbor session is named by its {e slot}: its index in
    [config.neighbors], from [0].  Entry points take the slot of the
    session an event concerns and actions name the slot they are for, so
    the event path never looks a neighbor up by ASN.  {!slot} is the one
    ASN-to-slot lookup, for callers that start from an ASN (tests, the
    session layer); {!Because_sim.Network} resolves every slot once, when
    it wires the routers together. *)

type neighbor = {
  neighbor_asn : Asn.t;
  relationship : Policy.relationship;
      (** The neighbor's role relative to this AS. *)
  mrai : float;  (** MRAI seconds for announcements to this neighbor; 0 disables. *)
}

type config = {
  asn : Asn.t;
  neighbors : neighbor list;
  rfd_scope : Policy.rfd_scope;
  rfd_params : Rfd_params.t;
}

(** The loc-RIB entry for a prefix. *)
type best =
  | Origin of Update.aggregator option  (** Self-originated. *)
  | Via of {
      from_asn : Asn.t;
      relationship : Policy.relationship;
      as_path : Apath.t;  (** As received (neighbor first), interned. *)
      aggregator : Update.aggregator option;
    }

type action =
  | Send of { slot : int; update : Update.t }
      (** Deliver [update] over the session in [slot]. *)
  | Set_reuse_timer of { slot : int; prefix : Prefix.t; at : float }
      (** Ask to be called back via {!handle_reuse_check} at time [at]. *)
  | Set_mrai_timer of { slot : int; prefix : Prefix.t; at : float }
      (** Ask to be called back via {!handle_mrai_expiry} at time [at]. *)
  | Feed of Update.t
      (** What a full-feed customer session (a route-collector vantage point)
          observes at this instant: the loc-RIB change with this AS
          prepended.  Emitted only by a monitored router. *)

type t

type stats = {
  mutable rfd_suppressions : int;
      (** Transitions into suppression (a reuse timer was armed). *)
  mutable rfd_releases : int;
      (** Reuse checks that found the penalty decayed and re-ran best-path
          selection — the release side of the RFD cycle. *)
}

type table_sizes = {
  rib_in_entries : int;   (** Entries across every neighbor's adj-RIB-in. *)
  rfd_states : int;       (** Live RFD penalty states across neighbors. *)
  adj_out_entries : int;  (** Entries across every neighbor's adj-RIB-out. *)
  mrai_states : int;      (** MRAI gate states across neighbors. *)
  loc_rib_entries : int;
}

val create : ?monitored:bool -> config -> t
(** [monitored] (default [true]): a vantage point listens at this AS, so the
    router emits {!Feed} actions.  An unmonitored router builds no
    observations at all; its routing behaviour is identical. *)

val asn : t -> Asn.t
val config : t -> config

val slot : t -> Asn.t -> int
(** The slot of the session to a neighbor.  Raises [Invalid_argument] if
    the AS is not a configured neighbor. *)

val stats : t -> stats
(** Always-on RFD transition tallies (shared mutable record; read after the
    run, or copy). *)

val table_sizes : t -> table_sizes
(** Current entry counts of the per-neighbor RIB, RFD and MRAI slots and of
    the loc-RIB — the telemetry memory gauges.  Walks every prefix row; call
    at snapshot time, not per event. *)

val handle_update : t -> now:float -> slot:int -> Update.t -> action list
(** Process one update received over the session in [slot]. *)

val originate :
  t -> now:float -> ?aggregator:Update.aggregator -> Prefix.t -> action list
(** (Re-)announce a locally originated prefix.  Repeated calls with fresh
    aggregator timestamps model Beacon announcements. *)

val withdraw_origin : t -> now:float -> Prefix.t -> action list

val handle_reuse_check :
  t -> now:float -> slot:int -> prefix:Prefix.t -> action list
(** Fired by a [Set_reuse_timer] request: releases the session's route if the
    penalty has decayed below the reuse threshold (re-advertising downstream),
    otherwise re-arms the timer. *)

val handle_mrai_expiry :
  t -> now:float -> slot:int -> prefix:Prefix.t -> action list
(** Fired by a [Set_mrai_timer] request: flushes a pending announcement. *)

val handle_session_down : t -> now:float -> slot:int -> action list
(** The BGP session in [slot] dropped ({!Because_bgp.Session}'s
    [Session_down]): every route learned on it is removed from the
    adj-RIB-in, the adj-RIB-out and MRAI state towards the neighbor are
    cleared, and each affected prefix is re-decided — producing the
    downstream withdrawals and failover announcements of path
    re-exploration. *)

val handle_session_up : t -> now:float -> slot:int -> action list
(** The session in [slot] (re-)established ([Session_up]): the current
    loc-RIB is re-advertised from an empty adj-RIB-out, subject to the usual
    export policy. *)

val best_route : t -> Prefix.t -> best option
(** Current loc-RIB entry. *)

val rfd_state : t -> slot:int -> prefix:Prefix.t -> Rfd.t option
(** The damping state of a session, if RFD applies and the session has seen
    updates.  Exposed for tests and the Fig. 2 reproduction. *)

val is_suppressing : t -> now:float -> bool
(** True if any session of this router currently suppresses a prefix. *)

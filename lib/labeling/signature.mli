(** RFD-signature detection per Burst–Break pair (§4.2, Fig. 5).

    If an AS on the path damps the Beacon prefix, the vantage point sees the
    Burst's updates stop early and — decisively — a {e re-advertisement}
    during the Break once the penalty has decayed below the reuse threshold.
    The re-advertisement is the delayed resend of the final Burst
    announcement, so its aggregator attribute still carries the original
    Beacon send time: the {e r-delta} — observation time minus encoded send
    time — measures how long the announcement was held back.  Requiring
    r-delta to exceed a minimum propagation time (the paper picks 5 minutes,
    comfortably above real propagation plus MRAI) separates damping from
    ordinary BGP delays. *)

type pair = {
  burst_start : float;
  burst_end : float;
  break_end : float;
  burst_updates : int;     (** Observed updates in the Burst window. *)
  last_burst_update : float option;
  readvertisement : float option;  (** Arrival of the first qualifying Break announcement. *)
  r_delta : float option;  (** Arrival − encoded send time of that announcement. *)
  readvertisement_path : Because_bgp.Asn.t list option;
      (** The AS path carried by the re-advertisement — the {e damped} path
          (during suppression the vantage point may have failed over to an
          alternative, so the Burst-dominant path can differ). *)
  burst_dominant_path : Because_bgp.Asn.t list option;
      (** Most frequent cleaned path among the Burst's announcements. *)
  damped : bool;           (** Pair exhibits the RFD signature. *)
}

val default_min_r_delta : float
(** 300 s — the paper's 5-minute minimum propagation time. *)

val default_margin : float
(** 90 s grace after the Burst end during which arrivals still count as Burst
    propagation. *)

val analyse_pair :
  ?min_r_delta:float ->
  times:(float * Because_bgp.Update.t) list ->
  window:float * float * float ->
  unit ->
  pair
(** [analyse_pair ~times ~window ()] examines the chronological
    [(observation-time, update)] stream of one (vantage point, prefix) pair
    against one [(burst_start, burst_end, break_end)] window; arrivals up to
    {!default_margin} after the Burst end still count as Burst.  Announcements
    without a valid aggregator cannot qualify as re-advertisements (their
    send time is unknown). *)

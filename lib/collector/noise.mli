(** Measurement noise models (§4.3 "Validation" of the paper).

    Two imperfections the real pipeline had to survive:

    - ≈1 % of announcements carried an empty/invalid aggregator IP and had to
      be discarded because the encoded send timestamp was missing;
    - occasional session resets / infrastructure failures, which the ≥90 %
      Burst–Break labeling rule absorbs. *)

type params = {
  invalid_aggregator_rate : float;  (** Probability an announcement's aggregator is corrupted. *)
  session_reset_rate : float;
      (** Probability that a vantage point suffers a reset during the
          campaign. *)
  reset_outage : float;  (** Duration of the data gap a reset causes, seconds. *)
}

val none : params
val realistic : params
(** 1 % invalid aggregators, 10 % of vantage points suffer one 30-minute
    outage. *)

val corrupt_aggregator :
  Because_stats.Rng.t -> params -> Because_bgp.Update.t -> Because_bgp.Update.t
(** Possibly invalidate an announcement's aggregator (withdrawals pass
    through). *)

val outage_windows :
  Because_stats.Rng.t -> params -> campaign_end:float -> (float * float) list
(** Draw the outage windows for one vantage point: one Bernoulli draw with
    [session_reset_rate], then, on a hit, a uniform start time in
    [\[0, campaign_end)] — so at most one window. *)

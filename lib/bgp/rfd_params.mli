(** Route Flap Damping configuration parameters (RFC 2439, Appendix B of the
    paper).

    All times are seconds; penalties are dimensionless.  The penalty is capped
    at a ceiling derived from the reuse threshold and the max-suppress-time so
    that, as in vendor implementations, no route stays suppressed longer than
    [max_suppress_time] after its last flap. *)

type t = {
  withdrawal_penalty : float;        (** Added per withdrawal (1000). *)
  readvertisement_penalty : float;   (** Added per re-advertisement (Cisco 0, Juniper 1000). *)
  attribute_change_penalty : float;  (** Added per attribute change (500). *)
  suppress_threshold : float;        (** Damp when penalty exceeds this. *)
  half_life : float;                 (** Exponential decay half-life. *)
  reuse_threshold : float;           (** Release when penalty decays below this. *)
  max_suppress_time : float;         (** Longest suppression after the last flap. *)
  timer_based_suppression : bool;
      (** How max-suppress-time is enforced.  [false] (Cisco/IOS): the
          penalty is capped at {!penalty_ceiling}, so a route stays damped
          while it keeps flapping and is released max-suppress-time after the
          last flap.  [true] (Juniper/Junos): an explicit timer releases the
          route max-suppress-time after the suppression began, even
          mid-flap — the next flap re-suppresses it.  The two semantics
          produce the distinct r-delta signatures behind Fig. 13. *)
}

val cisco : t
(** Deprecated vendor default: suppress-threshold 2000, half-life 15 min,
    reuse 750, max-suppress 60 min, no re-advertisement penalty. *)

val juniper : t
(** Deprecated vendor default: suppress-threshold 3000, re-advertisement
    penalty 1000, otherwise as Cisco.  Junos also supports an explicit
    suppression timer; set [timer_based_suppression] to model it. *)

val rfc7454 : t
(** RIPE-580 / RFC 7454 recommended: suppress-threshold 6000 — only routes
    flapping every couple of minutes get damped. *)

val with_max_suppress_scaled : t -> minutes:float -> t
(** Override the max-suppress-time (the paper finds operators use 10, 30 and
    60 minutes; Fig. 13's plateaus) and scale the half-life to a quarter of
    it (the vendor-default 60 min / 15 min ratio).  IOS
    refuses configurations whose penalty ceiling falls below the suppress
    threshold, so operators shortening the max-suppress-time shorten the
    half-life with it; keeping the ratio keeps the ceiling at 16× the reuse
    threshold, above every preset's suppress threshold. *)

val penalty_ceiling : t -> float
(** [reuse_threshold · 2^(max_suppress_time / half_life)]: the cap that
    enforces [max_suppress_time]. *)

val flaps_to_suppress : t -> int
(** Number of withdrawal+re-advertisement rounds (ignoring decay) needed to
    cross the suppress threshold — a quick sanity metric used in tests. *)

val pp : Format.formatter -> t -> unit

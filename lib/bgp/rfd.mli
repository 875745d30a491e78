(** The RFC 2439 Route Flap Damping penalty state machine.

    One [t] tracks one (prefix, BGP session) pair, exactly as the paper's §2.1
    describes: the penalty increases additively with each update, decays
    exponentially with the configured half-life in between, suppresses the
    route when it exceeds the suppress threshold, and releases it when it
    decays below the reuse threshold.  The penalty is capped at
    {!Rfd_params.penalty_ceiling} (Cisco semantics): once flapping stops, a
    capped penalty decays to the reuse threshold in exactly
    max-suppress-time — the mechanism behind Fig. 13's 10/30/60-minute
    re-advertisement plateaus — while continued flapping keeps the route
    suppressed. *)

type event =
  | Withdrawal          (** A withdrawal for a previously announced route. *)
  | Readvertisement     (** An announcement after a withdrawal. *)
  | Attribute_change    (** An announcement replacing a live route with new attributes. *)

type t

val create : Rfd_params.t -> t
val params : t -> Rfd_params.t

val penalty : t -> now:float -> float
(** Decayed penalty at time [now]. *)

val suppressed : t -> now:float -> bool
(** Whether the route is suppressed at [now] (applies decay and release). *)

val record : t -> now:float -> event -> unit
(** Account one update.  May transition into suppression. *)

val reuse_eta : t -> now:float -> float option
(** If currently suppressed, the absolute time at which the penalty will have
    decayed to the reuse threshold (assuming no further updates). *)

val suppression_started : t -> float option
(** Time at which the current suppression began, if suppressed. *)

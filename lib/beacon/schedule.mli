(** Two-phase BGP Beacon schedules (§4.1 of the paper).

    A Beacon cycles between a {e Burst} — alternating withdrawals and
    announcements at a fixed update interval, {e starting with a withdrawal
    and ending with an announcement} — and a {e Break} in which no updates are
    sent, letting RFD penalties decay until damped routers release the prefix
    (the delayed re-advertisement that forms the RFD signature).

    A {!ripe_style} schedule reproduces the classic RIPE Beacons (and the
    paper's anchor prefixes): announce / withdraw alternating on a long fixed
    period with no bursts. *)

type action = Announce | Withdraw

type t

val two_phase :
  ?start:float ->
  ?lead_in:float ->
  update_interval:float ->
  flaps:int ->
  break_duration:float ->
  cycles:int ->
  unit ->
  t
(** [two_phase ~update_interval ~flaps ~break_duration ~cycles ()] performs
    [cycles] Burst–Break rounds; each Burst is [flaps] withdrawal/announcement
    pairs spaced [update_interval] seconds apart.  [lead_in] (default 600 s)
    is the quiet period after the initial announcement at [start] (default
    0). *)

val of_durations :
  ?start:float ->
  ?lead_in:float ->
  update_interval:float ->
  burst_duration:float ->
  break_duration:float ->
  cycles:int ->
  unit ->
  t
(** Paper-style parametrisation: as many whole flaps as fit in
    [burst_duration] (the paper used 2-hour Bursts). *)

val ripe_style : ?start:float -> period:float -> cycles:int -> unit -> t
(** Announce at [start], withdraw after [period], re-announce after another
    [period], … for [cycles] announce/withdraw rounds (RIPE Beacons use a
    2-hour period). *)

val events : t -> (float * action) list
(** All Beacon events in chronological order, including the initial
    announcement. *)

val update_interval : t -> float

val windows : t -> (float * float * float) list
(** Per cycle: [(burst_start, burst_end, break_end)].  For a RIPE-style
    schedule each (announce, withdraw) round counts as a degenerate burst
    with an empty break. *)

val end_time : t -> float
(** Time of the last scheduled event. *)

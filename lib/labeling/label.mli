(** Path labeling: from per-vantage-point dump records to the
    (AS path, RFD / non-RFD) observations that feed the tomography (§4.2).

    Damping changes which path a vantage point uses — during suppression BGP
    fails over to alternatives — so, as the paper's footnote 1 notes, one
    (vantage point, prefix) pair can yield more than one path measurement.
    Evidence is therefore attributed {e per path}: each damped Burst–Break
    pair credits the AS path carried by its re-advertisement (the damped
    path); each clean pair credits the path that dominated the Burst's
    announcements.  A path is labeled RFD when at least [match_threshold]
    (default 90 %) of its evidence is damped — the slack absorbs session
    resets and other infrastructure noise. *)

open Because_bgp

type labeled_path = {
  prefix : Prefix.t;
  vp : Because_collector.Vantage.t;
  path : Asn.t list;       (** Cleaned path: vantage host first, Beacon origin last. *)
  rfd : bool;
  matched_pairs : int;     (** Burst–Break pairs attributing damped evidence. *)
  total_pairs : int;       (** All pairs attributing evidence to this path. *)
  pairs : Signature.pair list;  (** Every analysed pair of the (vp, prefix) stream. *)
  mean_r_delta : float option;  (** Mean r-delta over this path's damped pairs. *)
  alternatives : Asn.t list list;  (** Other paths observed at the same (vp, prefix). *)
}

val label_all :
  ?min_r_delta:float ->
  ?match_threshold:float ->
  ?gaps_of:(int -> (float * float) list) ->
  records:Because_collector.Dump.record list ->
  windows_of:(Prefix.t -> (float * float * float) list) ->
  unit ->
  labeled_path list
(** Group records by (vantage point, prefix) and label each stream whose
    prefix has Burst–Break windows ([windows_of] returning [\[\]] skips the
    prefix, e.g. anchors) — one result per path that accumulated evidence.
    Announcements with invalid aggregators are discarded first.

    [gaps_of vp_id] supplies each vantage point's known collection outages
    [(from, until)]: a Burst–Break window overlapping a gap is discarded
    rather than scored, since its missing updates would read as
    suppression.  Default: none. *)

val observations : labeled_path list -> (Asn.t list * bool) list
(** The tomography input: [(path, shows-RFD)] pairs. *)

val write_windows :
  string -> (Prefix.t * (float * float * float) list) list -> unit
(** Write the Burst–Break windows sidecar: one
    ["prefix burst_start burst_end break_end"] line per window. *)

val read_windows :
  string -> (Prefix.t -> (float * float * float) list, string) result
(** Read a {!write_windows} sidecar as the [windows_of] lookup
    {!label_all} takes (windows in file order).  [Error] names the first
    malformed line ("line N: ...") — too few or too many fields, a bad
    prefix, a non-numeric or non-finite time — or carries the I/O error
    of an unreadable file ({!Because_collector.Mrt.io_error}). *)

(** BGP update messages.

    Announcements carry the AS path and, like the paper's Beacons, encode the
    Beacon send timestamp in the transitive aggregator attribute so vantage
    points can associate each received announcement with the Beacon event
    that caused it.  A corrupted aggregator ([valid = false]) models the 1 %
    of real announcements observed with an empty/invalid aggregator IP, which
    the analysis pipeline must discard. *)

type aggregator = {
  aggregator_asn : Asn.t;  (** The Beacon's origin AS. *)
  sent_at : float;         (** Beacon send time, seconds since campaign start. *)
  valid : bool;            (** [false] models a corrupted aggregator IP field. *)
}

type t =
  | Announce of {
      prefix : Prefix.t;
      as_path : Asn.t list;  (** Nearest AS first, origin AS last. *)
      aggregator : aggregator option;
    }
  | Withdraw of { prefix : Prefix.t }

val prefix : t -> Prefix.t
val is_announce : t -> bool

val as_path : t -> Asn.t list option
(** [Some path] for announcements, [None] for withdrawals. *)

val aggregator : t -> aggregator option

val aggregator_equal : aggregator option -> aggregator option -> bool

(** [equal] is structural equality including the aggregator attribute — two
    Beacon announcements that differ only in their encoded timestamp are
    distinct updates and must both propagate. *)
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

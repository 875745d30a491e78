(** Declarative, seeded fault plans.

    A plan is a list of concrete faults with absolute times, drawn once from
    a {!severity} preset and a seeded RNG ({!draw}) — so the same world seed
    and severity reproduce the same faults — or assembled by hand with
    {!of_specs}.  The empty plan injects nothing and leaves a campaign
    bit-for-bit identical to a fault-free run. *)

open Because_bgp

type spec =
  | Session_reset of { a : Asn.t; b : Asn.t; at : float }
      (** Reset the BGP session on link [a]–[b] at [at]; it re-establishes
          through the full FSM handshake. *)
  | Link_flap of { a : Asn.t; b : Asn.t; down_at : float; duration : float }
      (** Physical link outage: down at [down_at], restored [duration]
          seconds later. *)
  | Site_outage of { site_id : int; from_ : float; duration : float }
      (** A Beacon site fails: scheduled Beacon updates in the window are
          skipped (Burst phases are lost) and its prefixes are withdrawn. *)
  | Collector_outage of { vp_id : int; from_ : float; duration : float }
      (** A vantage-point collector session drops: records in the window
          are missing from the dump, truncating the feed mid-campaign. *)
  | Session_impairment of {
      a : Asn.t;
      b : Asn.t;
      loss : float;
      duplication : float;
    }  (** Lossy/duplicating session for the whole campaign. *)

type t

val empty : t
val is_empty : t -> bool
val of_specs : spec list -> t
val specs : t -> spec list
val size : t -> int

(** Fault intensity: each field is a per-entity probability or duration used
    by {!draw}. *)
type severity = {
  session_reset_share : float;      (** Share of links suffering one reset. *)
  link_flap_share : float;          (** Share of links with one down-window. *)
  flap_duration : float;
  site_outage_prob : float;         (** Per Beacon site. *)
  site_outage_duration : float;
  collector_outage_share : float;   (** Share of vantage points truncated. *)
  collector_outage_duration : float;
  impaired_link_share : float;      (** Share of links losing/duplicating. *)
  loss_rate : float;
  duplication_rate : float;
}

val calm : severity
(** All rates zero: {!draw} yields {!empty}. *)

val mild : severity
val realistic : severity
(** Roughly the paper's operational reality: a few percent of links reset or
    flap, 10 % of vantage points suffer a 30-minute outage, occasional site
    failures. *)

val severe : severity

val severity_of_string : string -> (severity, string) result

val draw :
  Because_stats.Rng.t ->
  severity ->
  links:(Asn.t * Asn.t) list ->
  site_ids:int list ->
  vp_ids:int list ->
  horizon:float ->
  t
(** Draw a concrete plan: each link/site/vantage point independently suffers
    each fault kind with the severity's probability, at a uniform time in
    [\[0, horizon)]. *)

val site_outages : t -> site_id:int -> (float * float) list
(** [(from, until)] outage windows of one Beacon site, sorted. *)

val collector_outages : t -> vp_id:int -> (float * float) list

val count :
  [ `Session_reset | `Link_flap | `Site_outage | `Collector_outage
  | `Session_impairment ] ->
  t ->
  int

val pp_spec : Format.formatter -> spec -> unit
val pp : Format.formatter -> t -> unit

(** Install a {!Plan} into a running simulation and collect what happened.

    Network-level specs (session resets, link flaps, impairments) are
    recorded into the {!Because_sim.Script}; collection-layer specs
    (site and collector outages) are no-ops here — the campaign applies them
    when installing Beacon sites and exporting dumps — but they still appear
    in {!log} so the outcome records every injected fault. *)

open Because_bgp

val install : Plan.t -> Because_sim.Script.t -> unit
(** Record every network-level spec of the plan into the simulation script.
    Call once, before the script is replayed.  Replaying a plan with a
    positive loss/duplication rate requires the target network to carry a
    fault rng. *)

(** One realized fault event, merging the network's {!type:Because_sim.Network.fault_event}
    log with the collection-layer windows of the plan. *)
type injected =
  | Link_down of { a : Asn.t; b : Asn.t }
  | Link_up of { a : Asn.t; b : Asn.t }
  | Session_reset of { a : Asn.t; b : Asn.t }
  | Session_down of { owner : Asn.t; peer : Asn.t; reason : string }
  | Session_up of { owner : Asn.t; peer : Asn.t }
  | Update_lost of { from_asn : Asn.t; to_asn : Asn.t }
  | Update_duplicated of { from_asn : Asn.t; to_asn : Asn.t }
  | Site_down of { site_id : int }
  | Site_restored of { site_id : int }
  | Collector_down of { vp_id : int }
  | Collector_restored of { vp_id : int }

val log :
  plan:Plan.t -> Because_sim.Network.t -> (float * injected) list
(** Chronological record of every fault that was injected: the network's
    fault log plus the plan's site/collector outage windows. *)

val log_of :
  plan:Plan.t ->
  (float * Because_sim.Network.fault_event) list ->
  (float * injected) list
(** As {!log}, from an already-extracted (possibly shard-merged) network
    fault log. *)

val flush_telemetry :
  Because_telemetry.Registry.t ->
  plan:Plan.t ->
  log:(float * injected) list ->
  unit
(** Record [faults.planned.*] (per spec kind) and [faults.realized.*] (per
    realized event kind) counters.  A no-op on a disabled registry. *)

open Because_bgp
module Network = Because_sim.Network
module Script = Because_sim.Script

let install plan script =
  List.iter
    (fun spec ->
      match spec with
      | Plan.Session_reset { a; b; at } ->
          Script.session_reset script ~time:at ~a ~b
      | Plan.Link_flap { a; b; down_at; duration } ->
          Script.link_down script ~time:down_at ~a ~b;
          Script.link_up script ~time:(down_at +. duration) ~a ~b
      | Plan.Session_impairment { a; b; loss; duplication } ->
          Script.impair script ~a ~b ~loss ~duplication
      | Plan.Site_outage _ | Plan.Collector_outage _ ->
          (* Collection-layer faults: applied by the campaign when
             installing sites and exporting dumps. *)
          ())
    (Plan.specs plan)

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

let of_network_event : Network.fault_event -> injected = function
  | Network.Fault_link_down { a; b } -> Link_down { a; b }
  | Network.Fault_link_up { a; b } -> Link_up { a; b }
  | Network.Fault_session_reset { a; b } -> Session_reset { a; b }
  | Network.Fault_session_down { owner; peer; reason } ->
      Session_down { owner; peer; reason }
  | Network.Fault_session_up { owner; peer } -> Session_up { owner; peer }
  | Network.Fault_update_lost { from_asn; to_asn; _ } ->
      Update_lost { from_asn; to_asn }
  | Network.Fault_update_duplicated { from_asn; to_asn; _ } ->
      Update_duplicated { from_asn; to_asn }

(* Collection-layer fault events the network cannot see. *)
let plan_events plan =
  List.concat_map
    (fun spec ->
      match spec with
      | Plan.Site_outage { site_id; from_; duration } ->
          [ (from_, Site_down { site_id });
            (from_ +. duration, Site_restored { site_id }) ]
      | Plan.Collector_outage { vp_id; from_; duration } ->
          [ (from_, Collector_down { vp_id });
            (from_ +. duration, Collector_restored { vp_id }) ]
      | Plan.Session_reset _ | Plan.Link_flap _ | Plan.Session_impairment _ ->
          [])
    (Plan.specs plan)

let log_of ~plan events =
  let network_events =
    List.map (fun (time, ev) -> (time, of_network_event ev)) events
  in
  List.stable_sort
    (fun (ta, _) (tb, _) -> Float.compare ta tb)
    (network_events @ plan_events plan)

let log ~plan net = log_of ~plan (Network.fault_log net)

(* Flush the planned and realized fault counts into a telemetry registry.
   Called once per campaign, after the simulation: the planned side comes
   from the plan, the realized side from the merged fault log. *)
let flush_telemetry reg ~plan ~log =
  let module Tel = Because_telemetry.Registry in
  if Tel.is_enabled reg then begin
    let c name n = Tel.Counter.add (Tel.Counter.v reg name) n in
    c "faults.planned.session_resets" (Plan.count `Session_reset plan);
    c "faults.planned.link_flaps" (Plan.count `Link_flap plan);
    c "faults.planned.site_outages" (Plan.count `Site_outage plan);
    c "faults.planned.collector_outages" (Plan.count `Collector_outage plan);
    c "faults.planned.impairments" (Plan.count `Session_impairment plan);
    let realized name p =
      c name (List.length (List.filter (fun (_, ev) -> p ev) log))
    in
    realized "faults.realized.session_resets" (function
      | Session_reset _ -> true
      | _ -> false);
    realized "faults.realized.link_transitions" (function
      | Link_down _ | Link_up _ -> true
      | _ -> false);
    realized "faults.realized.session_transitions" (function
      | Session_down _ | Session_up _ -> true
      | _ -> false);
    realized "faults.realized.updates_lost" (function
      | Update_lost _ -> true
      | _ -> false);
    realized "faults.realized.updates_duplicated" (function
      | Update_duplicated _ -> true
      | _ -> false);
    realized "faults.realized.outage_transitions" (function
      | Site_down _ | Site_restored _ | Collector_down _
      | Collector_restored _ -> true
      | _ -> false)
  end

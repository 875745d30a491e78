(* Fault-injection subsystem: network-level session faults, fault plans and
   graceful campaign degradation. *)
open Because_bgp
module Network = Because_sim.Network
module Plan = Because_faults.Plan
module Injector = Because_faults.Injector
module Sc = Because_scenario
module Graph = Because_topology.Graph
module Rng = Because_stats.Rng

let asn = Asn.of_int
let prefix = Prefix.of_string "10.0.0.0/24"

let two_node_config =
  [
    { Router.asn = asn 65001;
      neighbors =
        [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider;
            mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 2;
      neighbors =
        [ { Router.neighbor_asn = asn 65001; relationship = Policy.Customer;
            mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
  ]

let two_node_net ?fault_seed () =
  Network.create ?fault_seed ~configs:two_node_config
    ~delay:(fun ~from_asn:_ ~to_asn:_ -> 1.0)
    ~monitored:(Asn.Set.singleton (asn 2))
    ()

let announces feed =
  List.filter
    (fun (_, u) -> match u with Update.Announce _ -> true | _ -> false)
    feed

let withdraws feed =
  List.filter
    (fun (_, u) -> match u with Update.Withdraw _ -> true | _ -> false)
    feed

(* --- network-level session faults --- *)

let test_session_reset_recovers () =
  let net = two_node_net () in
  Network.schedule_announce net ~time:0.0 ~origin:(asn 65001) prefix;
  Network.schedule_session_reset net ~time:50.0 ~a:(asn 65001) ~b:(asn 2);
  Network.run net ~until:2000.0;
  let feed = Network.feed net (asn 2) in
  Alcotest.(check bool) "withdrawal on session down" true
    (List.exists (fun (t, _) -> t >= 50.0 && t < 60.0) (withdraws feed));
  Alcotest.(check bool) "route re-learned after recovery" true
    (List.exists (fun (t, _) -> t > 50.0) (announces feed));
  let stats = Network.stats net in
  Alcotest.(check bool) "drops recorded" true (stats.Network.session_drops >= 1);
  Alcotest.(check bool) "recoveries recorded" true
    (stats.Network.session_recoveries >= 1);
  Alcotest.(check bool) "session re-established" true
    (Network.session_established net ~a:(asn 65001) ~b:(asn 2));
  let log = Network.fault_log net in
  let has p = List.exists (fun (_, e) -> p e) log in
  Alcotest.(check bool) "reset logged" true
    (has (function Network.Fault_session_reset _ -> true | _ -> false));
  Alcotest.(check bool) "down logged" true
    (has (function Network.Fault_session_down _ -> true | _ -> false));
  Alcotest.(check bool) "up logged" true
    (has (function Network.Fault_session_up _ -> true | _ -> false))

let test_link_flap_down_window () =
  let net = two_node_net () in
  Network.schedule_announce net ~time:0.0 ~origin:(asn 65001) prefix;
  Network.schedule_link_down net ~time:50.0 ~a:(asn 65001) ~b:(asn 2);
  Network.schedule_link_up net ~time:500.0 ~a:(asn 65001) ~b:(asn 2);
  Network.run net ~until:3000.0;
  let feed = Network.feed net (asn 2) in
  Alcotest.(check bool) "withdrawal when link fails" true
    (List.exists (fun (t, _) -> t >= 50.0 && t < 60.0) (withdraws feed));
  (* While the link is down the session cannot come back. *)
  Alcotest.(check bool) "no announcements in the down window" false
    (List.exists (fun (t, _) -> t > 60.0 && t < 500.0) (announces feed));
  Alcotest.(check bool) "route back after repair" true
    (List.exists (fun (t, _) -> t > 500.0) (announces feed));
  Alcotest.(check bool) "session up at the end" true
    (Network.session_established net ~a:(asn 65001) ~b:(asn 2))

let test_update_loss_impairment () =
  (* With 100% loss nothing survives the impaired session. *)
  let net = two_node_net ~fault_seed:42 () in
  Network.set_link_impairment net ~a:(asn 65001) ~b:(asn 2) ~loss:1.0
    ~duplication:0.0;
  Network.schedule_announce net ~time:0.0 ~origin:(asn 65001) prefix;
  Network.run net ~until:100.0;
  Alcotest.(check int) "all updates lost" 0
    (List.length (Network.feed net (asn 2)));
  Alcotest.(check bool) "losses counted" true
    ((Network.stats net).Network.lost >= 1);
  Alcotest.(check bool) "losses logged" true
    (List.exists
       (fun (_, e) ->
         match e with Network.Fault_update_lost _ -> true | _ -> false)
       (Network.fault_log net))

let run_feed ~with_fault_seed =
  let net =
    if with_fault_seed then two_node_net ~fault_seed:7 ()
    else two_node_net ()
  in
  Network.schedule_announce net ~time:0.0 ~origin:(asn 65001) prefix;
  Network.schedule_withdraw net ~time:100.0 ~origin:(asn 65001) prefix;
  Network.schedule_announce net ~time:200.0 ~origin:(asn 65001) prefix;
  Network.run net ~until:1000.0;
  (Network.feed net (asn 2), Network.fault_log net)

let test_no_faults_bit_for_bit () =
  (* Carrying a fault seed but injecting nothing must not disturb the run. *)
  let feed_plain, log_plain = run_feed ~with_fault_seed:false in
  let feed_armed, log_armed = run_feed ~with_fault_seed:true in
  Alcotest.(check int) "same feed length" (List.length feed_plain)
    (List.length feed_armed);
  List.iter2
    (fun (t1, u1) (t2, u2) ->
      Alcotest.(check (float 0.0)) "same timestamp" t1 t2;
      Alcotest.(check bool) "same update" true (u1 = u2))
    feed_plain feed_armed;
  Alcotest.(check int) "no fault events either way" 0
    (List.length log_plain + List.length log_armed)

(* --- fault plans --- *)

let test_draw_calm_is_empty () =
  let links = [ (asn 1, asn 2); (asn 2, asn 3) ] in
  let plan =
    Plan.draw (Rng.create 1) Plan.calm ~links ~site_ids:[ 0; 1 ]
      ~vp_ids:[ 0 ] ~horizon:1000.0
  in
  Alcotest.(check bool) "calm draws nothing" true (Plan.is_empty plan)

let qcheck_draw_deterministic_and_bounded =
  QCheck.Test.make ~name:"Plan.draw is seeded and bounded" ~count:50
    QCheck.(make Gen.(pair (int_bound 10_000) (oneofl [ Plan.mild; Plan.realistic; Plan.severe ])))
    (fun (seed, severity) ->
      let links = List.init 20 (fun i -> (asn (i + 1), asn (i + 100))) in
      let draw () =
        Plan.draw (Rng.create seed) severity ~links ~site_ids:[ 0; 1; 2 ]
          ~vp_ids:[ 0; 1; 2; 3 ] ~horizon:5000.0
      in
      let p1 = draw () and p2 = draw () in
      let same =
        Format.asprintf "%a" Plan.pp p1 = Format.asprintf "%a" Plan.pp p2
      in
      let bounded =
        List.for_all
          (function
            | Plan.Session_reset { at; _ } -> at >= 0.0 && at < 5000.0
            | Plan.Link_flap { down_at; duration; _ } ->
                down_at >= 0.0 && down_at < 5000.0 && duration >= 0.0
            | Plan.Site_outage { from_; _ } | Plan.Collector_outage { from_; _ }
              ->
                from_ >= 0.0 && from_ < 5000.0
            | Plan.Session_impairment { loss; duplication; _ } ->
                loss >= 0.0 && loss <= 1.0 && duplication >= 0.0
                && duplication <= 1.0)
          (Plan.specs p1)
      in
      same && bounded)

(* --- campaigns under faults --- *)

let tiny_world_params =
  {
    Sc.World.default_params with
    n_vantage_hosts = 12;
    topology =
      { Because_topology.Generate.default_params with
        n_transit = 15; n_stub = 40 };
  }

let tiny_world = lazy (Sc.World.build tiny_world_params)

let fast_params () =
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  { p with
    Sc.Campaign.cycles = 2;
    infer_config =
      { Because.Infer.default_config with n_samples = 300; burn_in = 200 } }

let labels_of outcome =
  List.map
    (fun (lp : Because_labeling.Label.labeled_path) ->
      ( lp.Because_labeling.Label.vp.Because_collector.Vantage.vp_id,
        Prefix.to_string lp.Because_labeling.Label.prefix,
        List.map Asn.to_int lp.Because_labeling.Label.path,
        lp.Because_labeling.Label.rfd ))
    outcome.Sc.Campaign.labeled

let test_empty_plan_reproduces_fault_free () =
  (* Same seed, Noise.none, empty plan: the fault machinery must neither
     consume randomness nor create session records — two runs and the
     explicitly-fault-free run agree label for label. *)
  let w = Lazy.force tiny_world in
  let base =
    { (fast_params ()) with
      Sc.Campaign.noise = Because_collector.Noise.none;
      run_inference = false }
  in
  let with_empty = { base with Sc.Campaign.faults = Plan.empty } in
  let o1 = Sc.Campaign.run w base in
  let o2 = Sc.Campaign.run w with_empty in
  Alcotest.(check bool) "identical labels" true (labels_of o1 = labels_of o2);
  Alcotest.(check int) "no fault events" 0
    (List.length o2.Sc.Campaign.fault_log);
  Alcotest.(check (list string)) "no warnings" [] o2.Sc.Campaign.warnings;
  Alcotest.(check bool) "nothing insufficient" true
    (o2.Sc.Campaign.insufficient = [])

let test_faulty_campaign_degrades_gracefully () =
  let w = Lazy.force tiny_world in
  let base = fast_params () in
  let links = Graph.links (Sc.World.graph w) in
  let l1 = List.nth links 0 and l2 = List.nth links 1 in
  let site_id = fst (List.hd (Sc.World.site_origins w)) in
  let plan =
    Plan.of_specs
      [
        Plan.Session_reset { a = fst l1; b = snd l1; at = 3000.0 };
        Plan.Link_flap
          { a = fst l2; b = snd l2; down_at = 4000.0; duration = 600.0 };
        Plan.Site_outage { site_id; from_ = 2000.0; duration = 3600.0 };
        Plan.Collector_outage { vp_id = 0; from_ = 1000.0; duration = 1800.0 };
      ]
  in
  let params =
    { base with Sc.Campaign.faults = plan; min_path_support = 2 }
  in
  let o = Sc.Campaign.run w params in
  (* The pipeline completed and the outcome records every injected fault. *)
  let has p = List.exists (fun (_, e) -> p e) o.Sc.Campaign.fault_log in
  Alcotest.(check bool) "reset recorded" true
    (has (function Injector.Session_reset _ -> true | _ -> false));
  Alcotest.(check bool) "link down recorded" true
    (has (function Injector.Link_down _ -> true | _ -> false));
  Alcotest.(check bool) "link up recorded" true
    (has (function Injector.Link_up _ -> true | _ -> false));
  Alcotest.(check bool) "site outage recorded" true
    (has (function Injector.Site_down { site_id = s } -> s = site_id | _ -> false));
  Alcotest.(check bool) "site recovery recorded" true
    (has (function Injector.Site_restored _ -> true | _ -> false));
  Alcotest.(check bool) "collector outage recorded" true
    (has (function Injector.Collector_down { vp_id } -> vp_id = 0 | _ -> false));
  Alcotest.(check bool) "collector recovery recorded" true
    (has (function Injector.Collector_restored _ -> true | _ -> false));
  (* Chronological log. *)
  let times = List.map fst o.Sc.Campaign.fault_log in
  Alcotest.(check bool) "log sorted" true
    (times = List.sort Float.compare times);
  (* Still a working measurement: labels exist and demoted ASs are C3. *)
  Alcotest.(check bool) "labeled paths survive" true
    (o.Sc.Campaign.labeled <> []);
  List.iter
    (fun a ->
      match List.assoc_opt a o.Sc.Campaign.categories with
      | Some c ->
          Alcotest.(check int)
            (Printf.sprintf "insufficient AS %s is C3" (Asn.to_string a))
            3
            (Because.Categorize.to_int c)
      | None -> Alcotest.fail "insufficient AS missing from categories")
    o.Sc.Campaign.insufficient

let test_collector_outage_truncates_feed () =
  let w = Lazy.force tiny_world in
  let base =
    { (fast_params ()) with
      Sc.Campaign.noise = Because_collector.Noise.none;
      run_inference = false }
  in
  let horizon = Sc.Campaign.horizon base in
  let plan =
    Plan.of_specs
      [ Plan.Collector_outage { vp_id = 0; from_ = 0.0; duration = horizon } ]
  in
  let o_free = Sc.Campaign.run w base in
  let o_cut =
    Sc.Campaign.run w { base with Sc.Campaign.faults = plan }
  in
  let vp0 records =
    List.length
      (List.filter
         (fun (r : Because_collector.Dump.record) ->
           r.Because_collector.Dump.vp.Because_collector.Vantage.vp_id = 0)
         records)
  in
  Alcotest.(check bool) "vantage point 0 saw records fault-free" true
    (vp0 o_free.Sc.Campaign.records > 0);
  Alcotest.(check int) "vantage point 0 silenced by the outage" 0
    (vp0 o_cut.Sc.Campaign.records)

let suite =
  ( "faults",
    [
      Alcotest.test_case "session reset recovers" `Quick
        test_session_reset_recovers;
      Alcotest.test_case "link flap window" `Quick test_link_flap_down_window;
      Alcotest.test_case "update loss" `Quick test_update_loss_impairment;
      Alcotest.test_case "no faults bit-for-bit" `Quick
        test_no_faults_bit_for_bit;
      Alcotest.test_case "calm plan empty" `Quick test_draw_calm_is_empty;
      QCheck_alcotest.to_alcotest qcheck_draw_deterministic_and_bounded;
      Alcotest.test_case "empty plan reproduces fault-free" `Quick
        test_empty_plan_reproduces_fault_free;
      Alcotest.test_case "faulty campaign degrades gracefully" `Quick
        test_faulty_campaign_degrades_gracefully;
      Alcotest.test_case "collector outage truncates feed" `Quick
        test_collector_outage_truncates_feed;
    ] )

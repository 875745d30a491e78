open Because_bgp
module Sc = Because_scenario
module Graph = Because_topology.Graph
module Rng = Because_stats.Rng

let small_world_params =
  {
    Sc.World.default_params with
    n_vantage_hosts = 20;
    topology =
      { Because_topology.Generate.default_params with
        n_transit = 25; n_stub = 80 };
  }

let world = lazy (Sc.World.build small_world_params)

let test_world_construction () =
  let w = Lazy.force world in
  let g = Sc.World.graph w in
  Alcotest.(check int) "ASes = topology + 7 origins" (8 + 25 + 80 + 7)
    (Graph.size g);
  Alcotest.(check int) "7 sites" 7 (List.length (Sc.World.site_origins w));
  List.iter
    (fun (_, origin) ->
      Alcotest.(check bool) "origin has providers" true
        (Graph.degree g origin >= 1))
    (Sc.World.site_origins w)

let test_origins_and_upstreams_clean () =
  let w = Lazy.force world in
  let dep = Sc.World.deployment w in
  let dampers = Sc.Deployment.dampers dep in
  List.iter
    (fun (_, origin) ->
      Alcotest.(check bool) "origin never damps" false
        (Asn.Set.mem origin dampers))
    (Sc.World.site_origins w);
  Asn.Set.iter
    (fun upstream ->
      Alcotest.(check bool)
        (Printf.sprintf "upstream %s never damps" (Asn.to_string upstream))
        false
        (Asn.Set.mem upstream dampers))
    (Sc.World.origin_upstreams w)

let test_deployment_share () =
  let w = Lazy.force world in
  let dep = Sc.World.deployment w in
  let n_dampers = Asn.Set.cardinal (Sc.Deployment.dampers dep) in
  let n_total = Graph.size (Sc.World.graph w) in
  let share = float_of_int n_dampers /. float_of_int n_total in
  Alcotest.(check bool)
    (Printf.sprintf "~9%% dampers (got %.3f)" share)
    true
    (share > 0.04 && share < 0.16);
  Alcotest.(check bool) "detectable subset" true
    (Asn.Set.subset (Sc.Deployment.detectable_dampers dep)
       (Sc.Deployment.dampers dep))

let test_inconsistent_damper_planted () =
  let w = Lazy.force world in
  let dep = Sc.World.deployment w in
  match Sc.Deployment.inconsistent dep with
  | None -> Alcotest.fail "expected an inconsistent damper"
  | Some (damper, spared) ->
      Alcotest.(check bool) "damper registered" true
        (Asn.Set.mem damper (Sc.Deployment.dampers dep));
      (match Sc.Deployment.scope_of dep damper with
      | Policy.All_except set ->
          Alcotest.(check bool) "spares exactly the spared" true
            (Asn.Set.equal set (Asn.Set.singleton spared))
      | _ -> Alcotest.fail "wrong scope");
      (* spared is a real neighbor *)
      Alcotest.(check bool) "spared is a neighbor" true
        (Graph.has_link (Sc.World.graph w) damper spared)

let test_vendor_mix () =
  let w = Lazy.force world in
  let dep = Sc.World.deployment w in
  let cisco = Sc.Deployment.vendor_share dep Sc.Deployment.Cisco in
  let juniper = Sc.Deployment.vendor_share dep Sc.Deployment.Juniper in
  let recommended = Sc.Deployment.vendor_share dep Sc.Deployment.Recommended in
  Alcotest.(check (float 1e-9)) "shares sum to 1" 1.0 (cisco +. juniper +. recommended);
  Alcotest.(check bool)
    (Printf.sprintf "vendor defaults dominate (%.2f)" (cisco +. juniper))
    true
    (cisco +. juniper > 0.35)

let test_operator_families_release_times () =
  (* The Fig. 13 mechanism: after a 2-hour Burst of 1-minute flapping, each
     operator family releases ~ its max-suppress-time after the Burst end. *)
  List.iter
    (fun (vendor, max_suppress) ->
      let params = Sc.Deployment.operator_params vendor max_suppress in
      let state = Rfd.create params in
      let burst_end = 7200.0 in
      let t = ref 0.0 and w = ref true in
      while !t <= burst_end do
        Rfd.record state ~now:!t
          (if !w then Rfd.Withdrawal else Rfd.Readvertisement);
        w := not !w;
        t := !t +. 60.0
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%.0f suppressed at burst end"
           (Format.asprintf "%a" Sc.Deployment.pp_vendor vendor)
           max_suppress)
        true
        (Rfd.suppressed state ~now:burst_end);
      let eta = Option.get (Rfd.reuse_eta state ~now:burst_end) in
      let release_minutes = (eta -. burst_end) /. 60.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s release %.1f min vs %.0f min"
           (Format.asprintf "%a" Sc.Deployment.pp_vendor vendor)
           release_minutes max_suppress)
        true
        (Float.abs (release_minutes -. max_suppress) < 1.5))
    [
      (Sc.Deployment.Cisco, 10.0);
      (Sc.Deployment.Cisco, 30.0);
      (Sc.Deployment.Cisco, 60.0);
      (Sc.Deployment.Juniper, 10.0);
      (Sc.Deployment.Juniper, 30.0);
      (Sc.Deployment.Juniper, 60.0);
    ]

let test_world_determinism () =
  let w1 = Sc.World.build small_world_params in
  let w2 = Sc.World.build small_world_params in
  Alcotest.(check bool) "same dampers" true
    (Asn.Set.equal
       (Sc.Deployment.dampers (Sc.World.deployment w1))
       (Sc.Deployment.dampers (Sc.World.deployment w2)));
  Alcotest.(check int) "same vantage count"
    (List.length (Sc.World.vantages w1))
    (List.length (Sc.World.vantages w2))

let test_delay_deterministic_and_bounded () =
  let w = Lazy.force world in
  let a = Asn.of_int 100 and b = Asn.of_int 1000 in
  let d1 = Sc.World.delay w ~from_asn:a ~to_asn:b in
  let d2 = Sc.World.delay w ~from_asn:a ~to_asn:b in
  Alcotest.(check (float 0.0)) "stable" d1 d2;
  Alcotest.(check bool) "bounded" true
    (d1 >= small_world_params.Sc.World.link_delay_min
    && d1 <= small_world_params.Sc.World.link_delay_max)

let fast_campaign =
  lazy
    (let w = Lazy.force world in
     let p = Sc.Campaign.default_params ~update_interval:60.0 in
     let p =
       { p with
         Sc.Campaign.cycles = 2;
         infer_config =
           { Because.Infer.default_config with n_samples = 400; burn_in = 300 } }
     in
     Sc.Campaign.run w p)

let test_campaign_produces_labels () =
  let o = Lazy.force fast_campaign in
  Alcotest.(check bool) "records" true (o.Sc.Campaign.records <> []);
  Alcotest.(check bool) "labeled paths" true (o.Sc.Campaign.labeled <> []);
  let rfd_paths =
    List.filter (fun (lp : Because_labeling.Label.labeled_path) -> lp.rfd)
      o.Sc.Campaign.labeled
  in
  Alcotest.(check bool) "some paths damped" true (rfd_paths <> [])

let test_campaign_windows () =
  let o = Lazy.force fast_campaign in
  Alcotest.(check int) "cycles windows" 2 (List.length o.Sc.Campaign.windows);
  Prefix.Set.iter
    (fun p ->
      Alcotest.(check int) "oscillating windows" 2
        (List.length (Sc.Campaign.windows_of o p)))
    o.Sc.Campaign.oscillating;
  Prefix.Set.iter
    (fun p ->
      Alcotest.(check int) "anchors have no windows" 0
        (List.length (Sc.Campaign.windows_of o p)))
    o.Sc.Campaign.anchors

let test_campaign_inference_quality () =
  let w = Lazy.force world in
  let o = Lazy.force fast_campaign in
  let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment w) in
  let universe = Sc.Campaign.universe o in
  let m =
    Because.Evaluate.of_sets ~predicted:(Sc.Campaign.because_damping o) ~truth
      ~universe
  in
  Alcotest.(check bool)
    (Printf.sprintf "precision decent (%.2f)" m.Because.Evaluate.precision)
    true
    (m.Because.Evaluate.precision >= 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "recall decent (%.2f)" m.Because.Evaluate.recall)
    true
    (m.Because.Evaluate.recall >= 0.35)

let test_campaign_no_deployment_no_rfd () =
  let clean_params =
    { small_world_params with
      deployment =
        { Sc.Deployment.default_spec with
          damping_share = 0.0; stub_damping_share = 0.0;
          inconsistent_damper = false } }
  in
  let w = Sc.World.build clean_params in
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  let p = { p with Sc.Campaign.cycles = 2; run_inference = false } in
  let o = Sc.Campaign.run w p in
  let rfd_paths =
    List.filter (fun (lp : Because_labeling.Label.labeled_path) -> lp.rfd)
      o.Sc.Campaign.labeled
  in
  Alcotest.(check (list string)) "no damping, no RFD labels" []
    (List.map
       (fun (lp : Because_labeling.Label.labeled_path) ->
         String.concat " " (List.map Asn.to_string lp.path))
       rfd_paths)

let test_run_multi_matches_single () =
  (* A multi-interval campaign yields one outcome per interval with the
     right prefixes, windows and per-interval parameters. *)
  let w = Lazy.force world in
  let p = Sc.Campaign.default_params ~update_interval:0.0 in
  let p = { p with Sc.Campaign.cycles = 2; run_inference = false } in
  let outcomes = Sc.Campaign.run_multi w p ~intervals:[ 60.0; 300.0 ] in
  Alcotest.(check int) "one outcome per interval" 2 (List.length outcomes);
  List.iter2
    (fun interval (o : Sc.Campaign.outcome) ->
      Alcotest.(check (float 0.0)) "interval recorded" interval
        o.Sc.Campaign.params.Sc.Campaign.update_interval;
      Alcotest.(check int) "7 oscillating prefixes" 7
        (Prefix.Set.cardinal o.Sc.Campaign.oscillating);
      Alcotest.(check bool) "labeled something" true
        (o.Sc.Campaign.labeled <> []))
    [ 60.0; 300.0 ] outcomes;
  (match outcomes with
  | [ a; b ] ->
      Alcotest.(check bool) "records shared" true
        (List.length a.Sc.Campaign.records = List.length b.Sc.Campaign.records);
      Alcotest.(check bool) "disjoint oscillating sets" true
        (Prefix.Set.is_empty
           (Prefix.Set.inter a.Sc.Campaign.oscillating
              b.Sc.Campaign.oscillating))
  | _ -> Alcotest.fail "expected two outcomes");
  Alcotest.(check bool) "duplicate intervals rejected" true
    (try ignore (Sc.Campaign.run_multi w p ~intervals:[ 60.0; 60.0 ]); false
     with Invalid_argument _ -> true)

let test_propagation_samples () =
  let o = Lazy.force fast_campaign in
  let anchors = Sc.Campaign.propagation_samples o ~role:`Anchor in
  Alcotest.(check bool) "anchor samples exist" true (Array.length anchors > 0);
  Alcotest.(check bool) "all below damping scale" true
    (Array.for_all (fun d -> d >= 0.0 && d < 300.0) anchors)

let test_campaign_deterministic () =
  (* Identical world + parameters must reproduce the exact same labels. *)
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  let p = { p with Sc.Campaign.cycles = 2; run_inference = false } in
  let run () =
    let w = Sc.World.build small_world_params in
    let o = Sc.Campaign.run w p in
    List.map
      (fun (lp : Because_labeling.Label.labeled_path) ->
        (List.map Asn.to_int lp.path, lp.rfd))
      o.Sc.Campaign.labeled
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-for-bit reproducible" true (a = b)

let test_seed_robustness () =
  (* The pipeline must work across seeds, not just the default world. *)
  List.iter
    (fun seed ->
      let w =
        Sc.World.build
          { small_world_params with Sc.World.seed; n_vantage_hosts = 25 }
      in
      let p = Sc.Campaign.default_params ~update_interval:60.0 in
      let p =
        { p with
          Sc.Campaign.cycles = 2;
          infer_config =
            { Because.Infer.default_config with n_samples = 350; burn_in = 250 } }
      in
      let o = Sc.Campaign.run w p in
      let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment w) in
      let m =
        Because.Evaluate.of_sets ~predicted:(Sc.Campaign.because_damping o)
          ~truth ~universe:(Sc.Campaign.universe o)
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d precision %.2f" seed m.Because.Evaluate.precision)
        true
        (m.Because.Evaluate.precision >= 0.5);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d recall %.2f" seed m.Because.Evaluate.recall)
        true
        (m.Because.Evaluate.recall >= 0.25))
    [ 7; 99; 1234 ]

let test_sim_jobs_equivalence () =
  (* A fault-free campaign must be bit-for-bit independent of sim_jobs:
     identical dump records (times, vantage, update) and identical labels.
     Background churn is on so beacon and churn prefixes shard together. *)
  let w = Lazy.force world in
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  let p =
    { p with
      Sc.Campaign.cycles = 2;
      run_inference = false;
      background_prefixes = 5 }
  in
  let fingerprint sim_jobs =
    let o = Sc.Campaign.run w { p with Sc.Campaign.sim_jobs } in
    ( List.map
        (fun (r : Because_collector.Dump.record) ->
          ( r.Because_collector.Dump.received_at,
            r.Because_collector.Dump.export_at,
            r.Because_collector.Dump.vp.Because_collector.Vantage.vp_id,
            Format.asprintf "%a" Update.pp r.Because_collector.Dump.update ))
        o.Sc.Campaign.records,
      List.map
        (fun (lp : Because_labeling.Label.labeled_path) ->
          (List.map Asn.to_int lp.path, lp.rfd))
        o.Sc.Campaign.labeled,
      o.Sc.Campaign.deliveries )
  in
  let seq = fingerprint 1 in
  List.iter
    (fun sim_jobs ->
      let shd = fingerprint sim_jobs in
      Alcotest.(check bool)
        (Printf.sprintf "sim_jobs %d outcome identical" sim_jobs)
        true (seq = shd))
    [ 3; 8 ]

(* S1 regression: the churn space is 61440 /24s (all of 172.16/12 upward
   through 172/8), not the historical 4096 — counts past the old clamp must
   round-trip through simulation and labeling, and [Invalid_argument] fires
   only at the true wrap point. *)
let test_background_prefix_space () =
  let tiny =
    {
      Sc.World.default_params with
      n_vantage_hosts = 4;
      topology =
        { Because_topology.Generate.default_params with
          n_transit = 6; n_stub = 12 };
    }
  in
  let w = Sc.World.build tiny in
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  let p =
    { p with
      Sc.Campaign.cycles = 1;
      burst_duration = 120.0;
      break_duration = 120.0;
      lead_in = 30.0;
      anchor_period = 120.0;
      run_inference = false;
      background_prefixes = 4200;
      (* Effectively no re-flaps: each churn prefix contributes its initial
         announcement only, so 4200 of them stay fast on a tiny world. *)
      background_mean_gap = 1e9 }
  in
  let o = Sc.Campaign.run w p in
  (* The 4097th prefix onward lives past the old /12 boundary
     (172.16.0.0 + 4096 * /24 = 172.32.0.0). *)
  let old_boundary = Int32.add 0xAC100000l (Int32.shift_left 4096l 8) in
  let beyond =
    List.filter
      (fun (r : Because_collector.Dump.record) ->
        let net =
          Prefix.network (Update.prefix r.Because_collector.Dump.update)
        in
        Int32.unsigned_compare net old_boundary >= 0
        && Int32.unsigned_compare net 0xAD000000l < 0)
      o.Sc.Campaign.records
  in
  Alcotest.(check bool) "records beyond the old 4096-prefix clamp" true
    (beyond <> []);
  Alcotest.(check bool) "labeling still produces paths" true
    (o.Sc.Campaign.labeled <> []);
  Alcotest.(check bool) "count above the true wrap point rejected" true
    (try
       ignore (Sc.Campaign.run w { p with Sc.Campaign.background_prefixes = 61441 });
       false
     with Invalid_argument _ -> true)

(* More shards than simulation jobs must leave a campaign's outcome
   untouched: same records, same labels, same delivery count. *)
let test_campaign_shard_invariant () =
  let w = Lazy.force world in
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  let p =
    { p with
      Sc.Campaign.cycles = 2;
      run_inference = false;
      background_prefixes = 5 }
  in
  let fingerprint p =
    let o = Sc.Campaign.run w p in
    ( List.map
        (fun (r : Because_collector.Dump.record) ->
          ( r.Because_collector.Dump.received_at,
            r.Because_collector.Dump.export_at,
            r.Because_collector.Dump.vp.Because_collector.Vantage.vp_id,
            Format.asprintf "%a" Update.pp r.Because_collector.Dump.update ))
        o.Sc.Campaign.records,
      List.map
        (fun (lp : Because_labeling.Label.labeled_path) ->
          (List.map Asn.to_int lp.path, lp.rfd))
        o.Sc.Campaign.labeled,
      o.Sc.Campaign.deliveries )
  in
  let sequential = fingerprint p in
  let sharded =
    fingerprint { p with Sc.Campaign.sim_shards = Some 4; sim_jobs = 2 }
  in
  Alcotest.(check bool) "sharded campaign outcome identical" true
    (sequential = sharded)

let test_site_of_prefix () =
  let o = Lazy.force fast_campaign in
  let some_osc = Prefix.Set.min_elt o.Sc.Campaign.oscillating in
  Alcotest.(check bool) "oscillating maps to a site" true
    (Sc.Campaign.site_of_prefix o some_osc <> None);
  Alcotest.(check (option int)) "foreign prefix maps nowhere" None
    (Sc.Campaign.site_of_prefix o (Prefix.of_string "192.0.2.0/24"))

let suite =
  ( "scenario",
    [
      Alcotest.test_case "world construction" `Quick test_world_construction;
      Alcotest.test_case "origins clean" `Quick test_origins_and_upstreams_clean;
      Alcotest.test_case "deployment share" `Quick test_deployment_share;
      Alcotest.test_case "inconsistent damper" `Quick
        test_inconsistent_damper_planted;
      Alcotest.test_case "vendor mix" `Quick test_vendor_mix;
      Alcotest.test_case "operator families release at max-suppress" `Quick
        test_operator_families_release_times;
      Alcotest.test_case "world determinism" `Quick test_world_determinism;
      Alcotest.test_case "delay deterministic" `Quick
        test_delay_deterministic_and_bounded;
      Alcotest.test_case "campaign labels" `Slow test_campaign_produces_labels;
      Alcotest.test_case "campaign windows" `Slow test_campaign_windows;
      Alcotest.test_case "campaign inference quality" `Slow
        test_campaign_inference_quality;
      Alcotest.test_case "clean world stays clean" `Slow
        test_campaign_no_deployment_no_rfd;
      Alcotest.test_case "run_multi" `Slow test_run_multi_matches_single;
      Alcotest.test_case "seed robustness" `Slow test_seed_robustness;
      Alcotest.test_case "campaign determinism" `Slow test_campaign_deterministic;
      Alcotest.test_case "propagation samples" `Slow test_propagation_samples;
      Alcotest.test_case "sim_jobs equivalence" `Slow test_sim_jobs_equivalence;
      Alcotest.test_case "background prefix space" `Quick
        test_background_prefix_space;
      Alcotest.test_case "shard invariance" `Slow
        test_campaign_shard_invariant;
      Alcotest.test_case "site of prefix" `Slow test_site_of_prefix;
    ] )

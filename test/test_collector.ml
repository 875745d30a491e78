open Because_bgp
module Project = Because_collector.Project
module Vantage = Because_collector.Vantage
module Noise = Because_collector.Noise
module Dump = Because_collector.Dump
module Rng = Because_stats.Rng

let asn = Asn.of_int

let test_project_names () =
  Alcotest.(check int) "three projects" 3 (List.length Project.all);
  Alcotest.(check string) "ris" "RIPE RIS" (Project.name Project.Ris)

let test_routeviews_export_near_50s () =
  let rng = Rng.create 1 in
  for _ = 1 to 200 do
    let propagation = Rng.range_float rng 1.0 30.0 in
    let d = Project.export_delay rng Project.Routeviews ~sent_to_received:propagation in
    let total = propagation +. d in
    Alcotest.(check bool)
      (Printf.sprintf "total %.1f near 50s" total)
      true
      (total >= 49.9 && total <= 53.0)
  done

let test_isolario_export_fast () =
  let rng = Rng.create 2 in
  for _ = 1 to 200 do
    let d = Project.export_delay rng Project.Isolario ~sent_to_received:5.0 in
    Alcotest.(check bool) "within 30s budget" true (d >= 0.0 && d <= 25.0)
  done

let test_ris_export_diverse () =
  let rng = Rng.create 3 in
  let ds =
    Array.init 2000 (fun _ ->
        Project.export_delay rng Project.Ris ~sent_to_received:5.0)
  in
  Alcotest.(check bool) "bounded" true
    (Array.for_all (fun d -> d >= 0.0 && d <= 120.0) ds);
  Alcotest.(check bool) "spread out" true (Because_stats.Summary.std ds > 10.0)

let test_vantage_assign () =
  let rng = Rng.create 4 in
  let hosts = List.init 50 (fun i -> asn (100 + i)) in
  let vps = Vantage.assign rng ~hosts ~per_project_share:[ 0.5; 0.4; 0.3 ] in
  (* every host covered *)
  Alcotest.(check int) "hosts covered" 50 (Asn.Set.cardinal (Vantage.hosts vps));
  (* distinct ids *)
  let ids = List.map (fun (v : Vantage.t) -> v.Vantage.vp_id) vps in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq Int.compare ids));
  (* overlap exists: more sessions than hosts *)
  Alcotest.(check bool) "multi-project hosts exist" true (List.length vps > 50)

let test_noise_corrupt_rate () =
  let rng = Rng.create 5 in
  let agg = { Update.aggregator_asn = asn 1; sent_at = 0.0; valid = true } in
  let u =
    Update.Announce
      { prefix = Prefix.of_string "10.0.0.0/24"; as_path = [ asn 1 ];
        aggregator = Some agg }
  in
  let n = 20_000 in
  let corrupted = ref 0 in
  for _ = 1 to n do
    match Noise.corrupt_aggregator rng Noise.realistic u with
    | Update.Announce { aggregator = Some { valid = false; _ }; _ } ->
        incr corrupted
    | _ -> ()
  done;
  let rate = float_of_int !corrupted /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "~1%% corruption (got %.3f)" rate)
    true
    (rate > 0.005 && rate < 0.02)

let test_noise_none () =
  let rng = Rng.create 6 in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "no outage" []
    (Noise.outage_windows rng Noise.none ~campaign_end:1000.0)

let test_outage_within_campaign () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    match Noise.outage_windows rng Noise.realistic ~campaign_end:10_000.0 with
    | [ (lo, hi) ] ->
        Alcotest.(check bool) "window sane" true
          (lo >= 0.0 && lo <= 10_000.0 && hi = lo +. 1800.0)
    | [] -> ()
    | _ -> Alcotest.fail "one outage slot yielded several windows"
  done

(* The one outage slot must keep consuming the historical single-window RNG
   stream: one bernoulli draw, then one uniform iff the slot hit. *)
let test_outage_single_slot_stream () =
  let windows =
    let rng = Rng.create 7 in
    Noise.outage_windows rng Noise.realistic ~campaign_end:10_000.0
  in
  let manual =
    let rng = Rng.create 7 in
    if Rng.float rng < Noise.realistic.Noise.session_reset_rate then
      let start = Rng.range_float rng 0.0 10_000.0 in
      [ (start, start +. Noise.realistic.Noise.reset_outage) ]
    else []
  in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "same stream as the historical single-window draw" manual windows

(* Dump building over a tiny simulated network. *)
let build_dump () =
  let configs =
    [
      { Router.asn = asn 65001;
        neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
        rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
      { Router.asn = asn 2;
        neighbors = [ { Router.neighbor_asn = asn 65001; relationship = Policy.Customer; mrai = 0.0 } ];
        rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    ]
  in
  let net =
    Because_sim.Network.create ~configs
      ~delay:(fun ~from_asn:_ ~to_asn:_ -> 1.0)
      ~monitored:(Asn.Set.singleton (asn 2)) ()
  in
  let p = Prefix.of_string "10.0.0.0/24" in
  Because_sim.Network.schedule_announce net ~time:0.0 ~origin:(asn 65001) p;
  Because_sim.Network.schedule_withdraw net ~time:100.0 ~origin:(asn 65001) p;
  Because_sim.Network.schedule_announce net ~time:200.0 ~origin:(asn 65001) p;
  Because_sim.Network.run net ~until:1000.0;
  let vp = Vantage.make ~vp_id:0 ~host_asn:(asn 2) ~project:Project.Isolario in
  Dump.of_feeds (Rng.create 8) ~feed_of:(Because_sim.Network.feed net)
    ~vantages:[ vp ] ~noise:Noise.none ~campaign_end:1000.0 ()

let test_dump_records () =
  let records = build_dump () in
  Alcotest.(check int) "three updates" 3 (List.length records);
  List.iter
    (fun (r : Dump.record) ->
      Alcotest.(check bool) "export after receipt" true
        (r.Dump.export_at >= r.Dump.received_at))
    records;
  let sorted =
    List.for_all2
      (fun (a : Dump.record) (b : Dump.record) -> a.export_at <= b.export_at)
      (List.filteri (fun i _ -> i < 2) records)
      (List.tl records)
  in
  Alcotest.(check bool) "sorted by export" true sorted;
  Alcotest.(check int) "prefix set" 1 (Prefix.Set.cardinal (Dump.prefixes records));
  Alcotest.(check (list int)) "vp ids" [ 0 ] (Dump.vp_ids records)

let test_valid_aggregator_filter () =
  let records = build_dump () in
  let kept = List.filter Dump.usable records in
  (* all clean here: 2 announcements + 1 withdrawal *)
  Alcotest.(check int) "all kept" 3 (List.length kept);
  (* corrupt one announcement by hand *)
  let corrupt =
    List.map
      (fun (r : Dump.record) ->
        match r.Dump.update with
        | Update.Announce a ->
            { r with
              Dump.update =
                Update.Announce
                  { a with
                    aggregator =
                      Option.map
                        (fun g -> { g with Update.valid = false })
                        a.aggregator } }
        | Update.Withdraw _ -> r)
      records
  in
  Alcotest.(check int) "invalid announcements dropped, withdrawal kept" 1
    (List.length (List.filter Dump.usable corrupt))

let suite =
  ( "collector",
    [
      Alcotest.test_case "project names" `Quick test_project_names;
      Alcotest.test_case "routeviews ~50s" `Quick test_routeviews_export_near_50s;
      Alcotest.test_case "isolario fast" `Quick test_isolario_export_fast;
      Alcotest.test_case "ris diverse" `Quick test_ris_export_diverse;
      Alcotest.test_case "vantage assign" `Quick test_vantage_assign;
      Alcotest.test_case "noise corrupt rate" `Quick test_noise_corrupt_rate;
      Alcotest.test_case "noise none" `Quick test_noise_none;
      Alcotest.test_case "outage window" `Quick test_outage_within_campaign;
      Alcotest.test_case "single-slot outage stream" `Quick
        test_outage_single_slot_stream;
      Alcotest.test_case "dump records" `Quick test_dump_records;
      Alcotest.test_case "aggregator filter" `Quick test_valid_aggregator_filter;
    ] )

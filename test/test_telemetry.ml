(* Telemetry subsystem: sharded registry semantics, exporters, and the
   zero-cost-when-off guarantee across a full campaign. *)
module Tel = Because_telemetry
module Registry = Tel.Registry
module Snapshot = Tel.Snapshot
module Sc = Because_scenario
open Because_bgp

(* --- registry basics --- *)

let test_counter_gauge_hist () =
  let reg = Registry.create () in
  Alcotest.(check bool) "enabled" true (Registry.is_enabled reg);
  let c = Registry.Counter.v reg "t.counter" in
  Registry.Counter.add c 5;
  Registry.Counter.incr c;
  let g = Registry.Gauge.v reg "t.gauge" in
  Registry.Gauge.set g 1.0;
  Registry.Gauge.set g 2.5;
  let h = Registry.Histogram.v reg "t.hist" in
  List.iter (Registry.Histogram.observe h) [ 0.5; 1.5; 1.7; 100.0 ];
  let s = Registry.snapshot reg in
  Alcotest.(check (option int)) "counter" (Some 6) (Snapshot.counter s "t.counter");
  Alcotest.(check (option (float 0.0))) "gauge last-write" (Some 2.5)
    (Snapshot.gauge s "t.gauge");
  (match Snapshot.hist s "t.hist" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "hist count" 4 h.Snapshot.count;
      Alcotest.(check (float 1e-9)) "hist sum" 103.7 h.Snapshot.sum);
  (* Same-name handles alias the same cell; kind clashes are errors. *)
  Registry.Counter.add (Registry.Counter.v reg "t.counter") 4;
  let s = Registry.snapshot reg in
  Alcotest.(check (option int)) "interned" (Some 10)
    (Snapshot.counter s "t.counter");
  Alcotest.(check bool) "kind mismatch rejected" true
    (try
       ignore (Registry.Gauge.v reg "t.counter");
       false
     with Invalid_argument _ -> true)

let test_disabled_is_inert () =
  let reg = Registry.disabled in
  Alcotest.(check bool) "disabled" false (Registry.is_enabled reg);
  Registry.Counter.add (Registry.Counter.v reg "x") 7;
  Registry.Gauge.set (Registry.Gauge.v reg "y") 1.0;
  Registry.Histogram.observe (Registry.Histogram.v reg "z") 1.0;
  let r = Registry.Span.with_ reg ~name:"s" (fun () -> 41 + 1) in
  Alcotest.(check int) "span body runs" 42 r;
  Alcotest.(check bool) "snapshot empty" true
    (Registry.snapshot reg = Snapshot.empty)

let test_spans_and_overflow () =
  let reg = Registry.create ~span_capacity:4 () in
  for k = 1 to 10 do
    ignore (Registry.Span.with_ reg ~name:(Printf.sprintf "p%d" (k mod 2))
              (fun () -> Sys.opaque_identity k))
  done;
  let s = Registry.snapshot reg in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length s.Snapshot.spans);
  Alcotest.(check int) "overflow reported" 6 s.Snapshot.dropped_spans;
  List.iter
    (fun (sp : Snapshot.span) ->
      Alcotest.(check bool) "non-negative duration" true
        (sp.Snapshot.dur_ns >= 0L))
    s.Snapshot.spans;
  let starts = List.map (fun sp -> sp.Snapshot.start_ns) s.Snapshot.spans in
  Alcotest.(check bool) "sorted by start" true
    (starts = List.sort Int64.compare starts)

(* --- histogram merge algebra --- *)

let hist_of_values vs =
  let buckets = Array.make Snapshot.n_buckets 0 in
  List.iter
    (fun v ->
      let k = Snapshot.bucket_of v in
      buckets.(k) <- buckets.(k) + 1)
    vs;
  Snapshot.hist_of_buckets buckets
    ~sum:(List.fold_left ( +. ) 0.0 vs)

let hist_testable =
  Alcotest.testable
    (fun fmt (h : Snapshot.hist) ->
      Format.fprintf fmt "count=%d sum=%g" h.Snapshot.count h.Snapshot.sum)
    ( = )

(* Integer-valued observations keep the float sums exact, so merge is
   exactly associative and commutative, not just approximately. *)
let qcheck_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative and commutative"
    ~count:100
    QCheck.(
      triple
        (small_list (int_range 0 1000))
        (small_list (int_range 0 1000))
        (small_list (int_range 0 1000)))
    (fun (a, b, c) ->
      let h l = hist_of_values (List.map float_of_int l) in
      let ha = h a and hb = h b and hc = h c in
      let left = Snapshot.merge_hist (Snapshot.merge_hist ha hb) hc in
      let right = Snapshot.merge_hist ha (Snapshot.merge_hist hb hc) in
      left = right
      && Snapshot.merge_hist ha hb = Snapshot.merge_hist hb ha
      && left.Snapshot.count
         = List.length a + List.length b + List.length c)

let test_bucket_edges () =
  for k = 0 to Snapshot.n_buckets - 2 do
    let upper = Snapshot.bucket_upper k in
    Alcotest.(check bool) "value below edge lands at or below k" true
      (Snapshot.bucket_of (upper *. 0.99) <= k);
    Alcotest.(check bool) "edge value lands above k" true
      (Snapshot.bucket_of upper > k || k = Snapshot.n_buckets - 1)
  done;
  Alcotest.(check int) "non-positive to bucket 0" 0 (Snapshot.bucket_of 0.0);
  Alcotest.(check int) "negative to bucket 0" 0 (Snapshot.bucket_of (-3.0));
  Alcotest.(check bool) "top bucket open" true
    (Snapshot.bucket_upper (Snapshot.n_buckets - 1) = infinity)

(* --- multi-domain aggregation --- *)

let test_parallel_aggregation () =
  (* Counters recorded from inside work-stealing worker domains must merge
     to the exact total: each task bumps the shared counter and one
     task-private gauge from whichever domain ran it. *)
  let reg = Registry.create () in
  let n_tasks = 12 and per_task = 1000 in
  let tasks =
    Array.init n_tasks (fun t ->
        fun () ->
          let c = Registry.Counter.v reg "par.total" in
          let h = Registry.Histogram.v reg "par.obs" in
          for _ = 1 to per_task do
            Registry.Counter.incr c;
            Registry.Histogram.observe h 1.0
          done;
          Registry.Gauge.set
            (Registry.Gauge.v reg (Printf.sprintf "par.task%d" t))
            (float_of_int (t + 1));
          t)
  in
  let results = Because_stats.Parallel.run_tasks ~jobs:4 tasks in
  Alcotest.(check (list int)) "results in slot order"
    (List.init n_tasks Fun.id)
    (Array.to_list results);
  let s = Registry.snapshot reg in
  Alcotest.(check (option int)) "counter exact across domains"
    (Some (n_tasks * per_task))
    (Snapshot.counter s "par.total");
  (match Snapshot.hist s "par.obs" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "hist count exact" (n_tasks * per_task)
        h.Snapshot.count);
  for t = 0 to n_tasks - 1 do
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "task gauge %d" t)
      (Some (float_of_int (t + 1)))
      (Snapshot.gauge s (Printf.sprintf "par.task%d" t))
  done

(* --- exporters --- *)

let sample_snapshot () =
  let reg = Registry.create () in
  Registry.Counter.add (Registry.Counter.v reg "sim.events") 123;
  Registry.Gauge.set (Registry.Gauge.v reg "sim.shard0.events") 123.0;
  let h = Registry.Histogram.v reg "sim.shard_events" in
  Registry.Histogram.observe h 123.0;
  ignore (Registry.Span.with_ reg ~name:"campaign.sim" (fun () -> ()));
  Registry.snapshot reg

let test_exporters () =
  let s = sample_snapshot () in
  let manifest =
    Tel.Manifest.make ~seed:7 ~params:[ ("cycles", "2") ] ()
  in
  let json = Tel.Export.to_json ~manifest s in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json schema" true
    (contains json "\"schema\": \"because-telemetry/1\"");
  Alcotest.(check bool) "json counter" true
    (contains json "\"sim.events\": 123");
  Alcotest.(check bool) "json manifest seed" true
    (contains json "\"seed\": 7");
  let prom = Tel.Export.to_prometheus s in
  Alcotest.(check string) "prom name sanitized"
    "because_sim_shard0_events"
    (Tel.Export.prom_name "sim.shard0.events");
  Alcotest.(check bool) "prom counter line" true
    (contains prom "because_sim_events_total 123");
  Alcotest.(check bool) "prom histogram +Inf" true
    (contains prom "because_sim_shard_events_bucket{le=\"+Inf\"} 1");
  let trace = Tel.Export.to_chrome_trace s in
  Alcotest.(check bool) "trace events" true (contains trace "\"traceEvents\"");
  Alcotest.(check bool) "trace complete event" true
    (contains trace "\"ph\": \"X\"");
  Alcotest.(check bool) "trace span name" true
    (contains trace "\"name\": \"campaign.sim\"");
  Alcotest.(check bool) "manifest json escapes" true
    (Tel.Manifest.json_escape "a\"b\\c\nd" = "a\\\"b\\\\c\\nd")

(* --- zero-cost-when-off: full campaign bit-for-bit --- *)

let tiny_world_params seed =
  {
    Sc.World.default_params with
    seed;
    n_vantage_hosts = 10;
    topology =
      { Because_topology.Generate.default_params with
        n_transit = 12; n_stub = 30 };
  }

let fast_params telemetry =
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  { p with
    Sc.Campaign.cycles = 1;
    sim_jobs = 2;
    telemetry;
    infer_config =
      { Because.Infer.default_config with n_samples = 120; burn_in = 80 } }

(* Everything downstream of the RNG streams, flattened to plain values so
   structural equality is meaningful. *)
let fingerprint (o : Sc.Campaign.outcome) =
  ( List.map
      (fun (lp : Because_labeling.Label.labeled_path) ->
        ( lp.Because_labeling.Label.vp.Because_collector.Vantage.vp_id,
          Prefix.to_string lp.Because_labeling.Label.prefix,
          List.map Asn.to_int lp.Because_labeling.Label.path,
          lp.Because_labeling.Label.rfd ))
      o.Sc.Campaign.labeled,
    List.map
      (fun (a, c) -> (Asn.to_int a, Because.Categorize.to_int c))
      o.Sc.Campaign.categories,
    ( o.Sc.Campaign.deliveries,
      o.Sc.Campaign.events,
      Array.to_list o.Sc.Campaign.shard_events ),
    o.Sc.Campaign.warnings )

let qcheck_campaign_identical_with_telemetry =
  QCheck.Test.make ~name:"telemetry off vs on: campaign bit-for-bit" ~count:2
    QCheck.(int_range 1 1000)
    (fun seed ->
      let world = Sc.World.build (tiny_world_params seed) in
      let off = Sc.Campaign.run world (fast_params Registry.disabled) in
      let reg = Registry.create () in
      let on = Sc.Campaign.run world (fast_params reg) in
      fingerprint off = fingerprint on
      && off.Sc.Campaign.telemetry = None
      && on.Sc.Campaign.telemetry <> None)

let test_campaign_snapshot_contents () =
  let world = Sc.World.build (tiny_world_params 11) in
  let reg = Registry.create () in
  let o = Sc.Campaign.run world (fast_params reg) in
  match o.Sc.Campaign.telemetry with
  | None -> Alcotest.fail "telemetry snapshot missing"
  | Some s ->
      Alcotest.(check (option int)) "sim.events matches outcome"
        (Some o.Sc.Campaign.events)
        (Snapshot.counter s "sim.events");
      Alcotest.(check (option int)) "deliveries counter matches"
        (Some o.Sc.Campaign.deliveries)
        (Snapshot.counter s "sim.deliveries");
      let cfg = (fast_params reg).Sc.Campaign.infer_config in
      let sweeps =
        cfg.Because.Infer.burn_in + cfg.Because.Infer.n_samples
      in
      (* MH + HMC, one chain each. *)
      Alcotest.(check (option int)) "mcmc.sweeps" (Some (2 * sweeps))
        (Snapshot.counter s "mcmc.sweeps");
      let has_span name =
        List.exists (fun (sp : Snapshot.span) -> sp.Snapshot.name = name)
          s.Snapshot.spans
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " span present") true (has_span n))
        [ "campaign.stimulus"; "campaign.sim"; "sim.shard0.replay";
          "sim.shard1.replay"; "sim.merge"; "campaign.collect";
          "campaign.label"; "campaign.infer"; "infer.MH.chain0";
          "infer.HMC.chain0"; "campaign.categorize"; "campaign.heuristics" ];
      (* One histogram observation per shard, each written from the worker
         domain that ran it; together they add up to the event total. *)
      (match Snapshot.hist s "sim.shard_events" with
      | None -> Alcotest.fail "sim.shard_events histogram missing"
      | Some h ->
          Alcotest.(check int) "one observation per shard"
            (Array.length o.Sc.Campaign.shard_events) h.Snapshot.count;
          Alcotest.(check int) "shard events sum to total"
            o.Sc.Campaign.events (int_of_float h.Snapshot.sum));
      Alcotest.(check bool) "queue depth gauge set" true
        (match Snapshot.gauge s "sim.max_queue_depth" with
        | Some d -> d > 0.0
        | None -> false)

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "counter, gauge, histogram" `Quick
        test_counter_gauge_hist;
      Alcotest.test_case "disabled registry is inert" `Quick
        test_disabled_is_inert;
      Alcotest.test_case "span ring overflow" `Quick test_spans_and_overflow;
      QCheck_alcotest.to_alcotest qcheck_merge_associative;
      Alcotest.test_case "bucket edges" `Quick test_bucket_edges;
      Alcotest.test_case "aggregation under work-stealing" `Quick
        test_parallel_aggregation;
      Alcotest.test_case "exporters" `Quick test_exporters;
      QCheck_alcotest.to_alcotest qcheck_campaign_identical_with_telemetry;
      Alcotest.test_case "campaign snapshot contents" `Quick
        test_campaign_snapshot_contents;
    ] )

(* Heap, Engine, Network. *)
open Because_bgp
module Heap = Because_sim.Heap
module Engine = Because_sim.Engine
module Network = Because_sim.Network

let test_heap_orders () =
  let h = Heap.create () in
  List.iter (fun t -> Heap.push h ~time:t t) [ 3.0; 1.0; 2.0; 0.5; 2.5 ];
  let popped = ref [] in
  while not (Heap.is_empty h) do
    popped := Heap.remove_min h :: !popped
  done;
  Alcotest.(check (list (float 0.0))) "sorted" [ 0.5; 1.0; 2.0; 2.5; 3.0 ]
    (List.rev !popped)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:1.0 v) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> Heap.remove_min h) in
  Alcotest.(check (list string)) "insertion order on ties" [ "a"; "b"; "c" ] order

let test_heap_size_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~time:1.0 ();
  Alcotest.(check int) "size" 1 (Heap.size h);
  Alcotest.(check (float 0.0)) "min time" 1.0 (Heap.min_time h)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 100) (float_range 0.0 1e6))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h ~time:t t) times;
      let rec drain acc =
        if Heap.is_empty h then List.rev acc
        else
          let t = Heap.min_time h in
          ignore (Heap.remove_min h);
          drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort Float.compare times)

(* Pushes (Some time, from four distinct times, so most entries tie) and
   pops (None) interleaved, then a drain.  Every pop must return the live
   entry first in a stable sort by (time, insertion order), and the payload
   slots must be reused: the heap's capacity ends at the peak live count. *)
let qcheck_heap_interleaved =
  QCheck.Test.make ~name:"heap interleaved ties pop stably" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 300)
        (option ~ratio:0.6 (map float_of_int (int_range 0 3))))
    (fun ops ->
      let h = Heap.create () in
      let live = ref [] and next = ref 0 and peak = ref 0 in
      let pop () =
        match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
                (List.rev !live)
        with
        | [] -> true
        | (time, id) :: _ ->
            live := List.filter (fun (_, i) -> i <> id) !live;
            let t = Heap.min_time h in
            t = time && Heap.remove_min h = id
      in
      let ok =
        List.for_all
          (function
            | Some time ->
                Heap.push h ~time !next;
                live := (time, !next) :: !live;
                incr next;
                peak := max !peak (Heap.size h);
                true
            | None -> pop ())
          ops
      in
      let rec drain () = Heap.is_empty h || (pop () && drain ()) in
      ok && drain () && !live = [] && Heap.capacity h = !peak)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~time:2.0 "b";
  Engine.schedule e ~time:1.0 "a";
  Engine.run e ~until:10.0 ~handler:(fun ~now v -> log := (now, v) :: !log);
  Alcotest.(check (list (pair (float 0.0) string)))
    "ordered" [ (1.0, "a"); (2.0, "b") ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.schedule e ~time:1.0 ();
  Engine.schedule e ~time:5.0 ();
  Engine.run e ~until:3.0 ~handler:(fun ~now:_ () -> incr count);
  Alcotest.(check int) "stops at until" 1 !count;
  Alcotest.(check int) "pending kept" 1 (Engine.pending e)

let test_engine_handler_schedules () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~time:1.0 1;
  Engine.run e ~until:10.0 ~handler:(fun ~now v ->
      fired := v :: !fired;
      if v < 3 then Engine.schedule e ~time:(now +. 1.0) (v + 1));
  Alcotest.(check (list int)) "cascade" [ 1; 2; 3 ] (List.rev !fired)

let test_engine_past_clamped () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~time:5.0 "first";
  Engine.run e ~until:4.0 ~handler:(fun ~now:_ _ -> ());
  ignore (Engine.step e ~handler:(fun ~now:_ v -> log := v :: !log));
  (* now = 5; scheduling in the past clamps to now *)
  Engine.schedule e ~time:1.0 "late";
  ignore (Engine.step e ~handler:(fun ~now v ->
      Alcotest.(check (float 0.0)) "clamped time" 5.0 now;
      log := v :: !log));
  Alcotest.(check (list string)) "both ran" [ "late"; "first" ] !log

(* A 3-AS line: 65001 (origin, customer of 2) — 2 — 3 (customer of 2 hosting
   a vantage point). *)
let line_configs =
  let asn = Asn.of_int in
  [
    { Router.asn = asn 65001;
      neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 2;
      neighbors =
        [ { Router.neighbor_asn = asn 65001; relationship = Policy.Customer; mrai = 0.0 };
          { Router.neighbor_asn = asn 3; relationship = Policy.Customer; mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 3;
      neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
  ]

let make_line () =
  Network.create ~configs:line_configs
    ~delay:(fun ~from_asn:_ ~to_asn:_ -> 1.0)
    ~monitored:(Asn.Set.singleton (Asn.of_int 3)) ()

let prefix = Prefix.of_string "10.0.0.0/24"

let test_network_propagation () =
  let net = make_line () in
  Network.schedule_announce net ~time:0.0 ~origin:(Asn.of_int 65001) prefix;
  Network.run net ~until:100.0;
  let feed = Network.feed net (Asn.of_int 3) in
  (match feed with
  | [ (t, Update.Announce a) ] ->
      Alcotest.(check (float 1e-9)) "arrives after 2 hops" 2.0 t;
      Alcotest.(check (list int)) "full path" [ 3; 2; 65001 ]
        (List.map Asn.to_int a.as_path);
      let agg = Option.get a.aggregator in
      Alcotest.(check (float 0.0)) "aggregator stamped" 0.0 agg.Update.sent_at
  | _ -> Alcotest.fail "expected exactly one feed announcement");
  let stats = Network.stats net in
  Alcotest.(check int) "two deliveries" 2 stats.Network.deliveries

let test_network_withdraw () =
  let net = make_line () in
  Network.schedule_announce net ~time:0.0 ~origin:(Asn.of_int 65001) prefix;
  Network.schedule_withdraw net ~time:10.0 ~origin:(Asn.of_int 65001) prefix;
  Network.run net ~until:100.0;
  match Network.feed net (Asn.of_int 3) with
  | [ (_, Update.Announce _); (t, Update.Withdraw _) ] ->
      Alcotest.(check (float 1e-9)) "withdraw timing" 12.0 t
  | l -> Alcotest.failf "unexpected feed of %d records" (List.length l)

let test_network_unmonitored_silent () =
  let net = make_line () in
  Network.schedule_announce net ~time:0.0 ~origin:(Asn.of_int 65001) prefix;
  Network.run net ~until:100.0;
  Alcotest.(check int) "unmonitored AS has no feed" 0
    (List.length (Network.feed net (Asn.of_int 2)))

let test_network_mrai_batches () =
  (* With a 30 s MRAI on the middle router's session towards the VP host,
     rapid origin churn collapses into far fewer downstream announcements. *)
  let asn = Asn.of_int in
  let mk mrai =
    let configs =
      [
        { Router.asn = asn 65001;
          neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
          rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
        { Router.asn = asn 2;
          neighbors =
            [ { Router.neighbor_asn = asn 65001; relationship = Policy.Customer; mrai = 0.0 };
              { Router.neighbor_asn = asn 3; relationship = Policy.Customer; mrai } ];
          rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
        { Router.asn = asn 3;
          neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
          rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
      ]
    in
    let net =
      Network.create ~configs
        ~delay:(fun ~from_asn:_ ~to_asn:_ -> 0.1)
        ~monitored:(Asn.Set.singleton (asn 3)) ()
    in
    (* 20 announcements 5 s apart, each with a fresh aggregator. *)
    for k = 0 to 19 do
      Network.schedule_announce net ~time:(float_of_int k *. 5.0)
        ~origin:(asn 65001) prefix
    done;
    Network.run net ~until:500.0;
    List.length
      (List.filter
         (fun (_, u) -> Update.is_announce u)
         (Network.feed net (asn 3)))
  in
  let without_mrai = mk 0.0 in
  let with_mrai = mk 30.0 in
  Alcotest.(check int) "no MRAI: every update forwarded" 20 without_mrai;
  Alcotest.(check bool)
    (Printf.sprintf "MRAI batches (%d < %d)" with_mrai without_mrai)
    true
    (with_mrai <= 6)

(* Golden simulator output on the verify world (seed 42; 20 transit, 80
   stub, 16 vantage hosts) at the perfbench [campaign_verify] parameters:
   2 cycles at a 1-minute interval, sim_jobs 1.  The literals below were
   recorded from the simulator before its allocation diet; any change to a
   simulated event, a feed entry or an exported MRT byte shows up here. *)
module Sc = Because_scenario
module Sharded = Because_sim.Sharded
module Script = Because_sim.Script
module Schedule = Because_beacon.Schedule
module Site = Because_beacon.Site

let golden_world () =
  Sc.World.build
    { Sc.World.default_params with
      Sc.World.seed = 42;
      n_vantage_hosts = 16;
      topology =
        { Because_topology.Generate.default_params with
          Because_topology.Generate.n_transit = 20;
          n_stub = 80 } }

let golden_params =
  Sc.Campaign.with_jobs ~n_chains:1 ~sim_jobs:1
    { (Sc.Campaign.default_params ~update_interval:60.0) with
      Sc.Campaign.cycles = 2 }
    1

(* The campaign's own stimulus for one interval with no faults and no
   background churn: one Site per Beacon origin, installed in order. *)
let golden_script world (p : Sc.Campaign.params) =
  let schedule =
    Schedule.of_durations ~lead_in:p.Sc.Campaign.lead_in
      ~update_interval:p.Sc.Campaign.update_interval
      ~burst_duration:p.Sc.Campaign.burst_duration
      ~break_duration:p.Sc.Campaign.break_duration
      ~cycles:p.Sc.Campaign.cycles ()
  in
  let campaign_end =
    Schedule.end_time schedule +. p.Sc.Campaign.break_duration +. 600.0
  in
  let anchor_cycles =
    1
    + int_of_float
        (Float.ceil (campaign_end /. (2.0 *. p.Sc.Campaign.anchor_period)))
  in
  let script = Script.create () in
  List.iter
    (fun (site_id, origin) ->
      Site.install
        (Site.make ~site_id ~origin ~anchor_period:p.Sc.Campaign.anchor_period
           ~anchor_cycles ~oscillating:[ schedule ] ())
        script)
    (Sc.World.site_origins world);
  (script, campaign_end)

let golden_sim world p =
  let script, campaign_end = golden_script world p in
  ( Sharded.run ~jobs:1 ~configs:(Sc.World.router_configs world)
      ~delay:(Sc.World.delay world) ~monitored:(Sc.World.monitored world)
      ~until:campaign_end script,
    campaign_end )

(* Every feed entry in order: vantage, time in exact hex, update with its
   aggregator. *)
let feed_digest feeds =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun (vp, entries) ->
      Printf.bprintf b "vp %d\n" (Asn.to_int vp);
      List.iter
        (fun (time, u) ->
          Printf.bprintf b "%h %s" time (Format.asprintf "%a" Update.pp u);
          (match Update.aggregator u with
          | None -> ()
          | Some a ->
              Printf.bprintf b " agg %d %h %b"
                (Asn.to_int a.Update.aggregator_asn)
                a.Update.sent_at a.Update.valid);
          Buffer.add_char b '\n')
        entries)
    feeds;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_output () =
  let world = golden_world () in
  let sim, campaign_end = golden_sim world golden_params in
  let st = sim.Sharded.stats in
  Alcotest.(check string) "feed digest" "1fdb5e1f70ec2715e59442a3c1578685"
    (feed_digest (Sharded.feeds sim));
  Alcotest.(check int) "sim.events" 617353 sim.Sharded.events;
  Alcotest.(check (list int)) "Network.stats" [ 542520; 366476; 176044; 0; 0; 0; 0 ]
    [ st.Network.deliveries; st.Network.announcements; st.Network.withdrawals;
      st.Network.lost; st.Network.duplicated; st.Network.session_drops;
      st.Network.session_recoveries ];
  (* What `because export-dump` writes for the same world: the campaign's
     collector dump over these feeds (its noise stream is salted by cycles
     and interval), encoded as MRT. *)
  let salt =
    (golden_params.Sc.Campaign.cycles * 31)
    + int_of_float (golden_params.Sc.Campaign.update_interval *. 7919.0)
  in
  let records =
    Because_collector.Dump.of_feeds
      (Sc.World.fresh_rng world ~salt:(salt + 1))
      ~feed_of:(Sharded.feed sim) ~vantages:(Sc.World.vantages world)
      ~noise:golden_params.Sc.Campaign.noise ~campaign_end ()
  in
  Alcotest.(check string) "export-dump MRT digest"
    "e363e4d5537f0cc15426a986a9ce4a97"
    (Digest.to_hex
       (Digest.bytes (Because_collector.Mrt.encode_records records)))

(* The router state the golden replay leaves behind: the table sizes
   behind the `sim.tables.*` gauges and the RFD transition tallies behind
   the `sim.rfd_*` counters, from the same single network a one-shard
   [Sharded.run] replays. *)
let test_golden_tables () =
  let world = golden_world () in
  let script, campaign_end = golden_script world golden_params in
  let net =
    Network.create ~configs:(Sc.World.router_configs world)
      ~delay:(Sc.World.delay world) ~monitored:(Sc.World.monitored world) ()
  in
  Script.install script net;
  Network.run net ~until:campaign_end;
  Alcotest.(check int) "sim.events" 617353 (Network.events_processed net);
  let ts = Network.table_totals net in
  Alcotest.(check (list int)) "Network.table_totals"
    [ 3167; 328; 3306; 3306; 1559 ]
    [ ts.Router.rib_in_entries; ts.Router.rfd_states;
      ts.Router.adj_out_entries; ts.Router.mrai_states;
      ts.Router.loc_rib_entries ];
  Alcotest.(check (pair int int)) "Network.rfd_stats" (314, 94)
    (Network.rfd_stats net)

(* Everything downstream of the simulator on the golden verify world, from
   one [Campaign.run]: the labeled paths, the heuristic verdicts, both
   category lists and the Fig. 8 propagation samples, floats in exact hex.
   The literals were recorded before the labeling and heuristics fast
   paths; any change to a label, a verdict or a sample shows up here. *)
let test_golden_pipeline () =
  let o = Sc.Campaign.run (golden_world ()) golden_params in
  let digest f =
    let b = Buffer.create (1 lsl 16) in
    f b;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let path b p =
    List.iter (fun a -> Printf.bprintf b " %d" (Asn.to_int a)) p;
    Buffer.add_char b ';'
  in
  let labeled =
    digest (fun b ->
        List.iter
          (fun (lp : Because_labeling.Label.labeled_path) ->
            Printf.bprintf b "%s vp%d"
              (Prefix.to_string lp.prefix)
              lp.vp.Because_collector.Vantage.vp_id;
            path b lp.path;
            Printf.bprintf b " %b %d %d %d %s" lp.rfd lp.matched_pairs
              lp.total_pairs (List.length lp.pairs)
              (match lp.mean_r_delta with
              | None -> "-"
              | Some d -> Printf.sprintf "%h" d);
            List.iter (path b) lp.alternatives;
            Buffer.add_char b '\n')
          o.Sc.Campaign.labeled)
  in
  let verdicts =
    digest (fun b ->
        List.iter
          (fun (v : Because_heuristics.Combine.verdict) ->
            Printf.bprintf b "%d %h %h %h %h %b\n" (Asn.to_int v.asn) v.m1
              v.m2 v.m3 v.combined v.rfd)
          o.Sc.Campaign.heuristic_verdicts)
  in
  let categories cs =
    digest (fun b ->
        List.iter
          (fun (a, c) ->
            Printf.bprintf b "%d %d\n" (Asn.to_int a)
              (Because.Categorize.to_int c))
          cs)
  in
  let samples role =
    digest (fun b ->
        Array.iter (Printf.bprintf b "%h\n")
          (Sc.Campaign.propagation_samples o ~role))
  in
  Alcotest.(check int) "labeled paths" 316 (List.length o.Sc.Campaign.labeled);
  Alcotest.(check (list string)) "pipeline digests"
    [ "d1a6dcf9bd68a2e613caed992fdb764e"; "916fdcfb197c4498f042bc66293d3570";
      "6e5164956837dc64bd2fef04ae068ee2"; "b8e7dface0955bbdd566a60fc40bca65";
      "d68da94497af472b870cd561a0945fb2"; "4de3c998f332b5bbceb1a3781028ec56" ]
    [ labeled; verdicts; categories o.Sc.Campaign.categories_step1;
      categories o.Sc.Campaign.categories; samples `Anchor;
      samples `Oscillating ]

(* Gao–Rexford steady-state oracle.  With no RFD and no faults, a world
   that announces each Beacon prefix once converges to the unique stable
   routing tree of the policy model: customer routes over peer routes over
   provider routes, valley-free export, then the shortest path, then the
   lowest neighbor ASN — the same ranking as [Router]'s decision process.
   The tree is computed statically in three phases and compared with every
   router's [best_route] at quiescence. *)
module Graph = Because_topology.Graph
module Generate = Because_topology.Generate
module Rng = Because_stats.Rng

(* Each routed AS maps to (how it learned the route, its loc-RIB path
   neighbor first); the origin maps to (None, []). *)
let routing_tree graph origin =
  let route = Hashtbl.create 64 in
  Hashtbl.replace route origin (None, []);
  let path_of a = snd (Hashtbl.find route a) in
  let with_role role a =
    List.filter_map
      (fun (n, rel) -> if rel = role then Some n else None)
      (Graph.neighbors graph a)
  in
  (* Lowest (length, ASN) among candidate neighbors that already route. *)
  let best_of candidates =
    List.fold_left
      (fun acc n ->
        match Hashtbl.find_opt route n with
        | None -> acc
        | Some (_, p) -> (
            let len = List.length p in
            match acc with
            | Some (l, m) when l < len || (l = len && Asn.compare m n < 0) ->
                acc
            | _ -> Some (len, n)))
      None candidates
  in
  (* Phase 1, customer routes: climb provider links one level at a time;
     each level takes its lowest-ASN customer from the level below. *)
  let frontier = ref [ origin ] in
  while !frontier <> [] do
    let level = Hashtbl.create 16 in
    List.iter
      (fun c ->
        List.iter
          (fun p ->
            if not (Hashtbl.mem route p) then
              match Hashtbl.find_opt level p with
              | Some c' when Asn.compare c' c <= 0 -> ()
              | _ -> Hashtbl.replace level p c)
          (with_role Policy.Provider c))
      !frontier;
    Hashtbl.iter
      (fun p c ->
        Hashtbl.replace route p (Some Policy.Customer, c :: path_of c))
      level;
    frontier := Hashtbl.fold (fun p _ acc -> p :: acc) level []
  done;
  (* Phase 2, peer routes: one lateral hop from an AS holding a customer
     route (peers export nothing else). *)
  let peer_routes =
    List.filter_map
      (fun a ->
        if Hashtbl.mem route a then None
        else
          match best_of (with_role Policy.Peer a) with
          | None -> None
          | Some (_, q) -> Some (a, q))
      (Graph.ases graph)
  in
  List.iter
    (fun (a, q) -> Hashtbl.replace route a (Some Policy.Peer, q :: path_of q))
    peer_routes;
  (* Phase 3, provider routes: everything else descends from its best
     provider; iterate to the fixpoint over the acyclic provider graph. *)
  let downstream =
    List.filter (fun a -> not (Hashtbl.mem route a)) (Graph.ases graph)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        match best_of (with_role Policy.Provider a) with
        | None -> ()
        | Some (_, p) ->
            let r = (Some Policy.Provider, p :: path_of p) in
            if Hashtbl.find_opt route a <> Some r then begin
              Hashtbl.replace route a r;
              changed := true
            end)
      downstream
  done;
  route

let show_route = function
  | None -> "none"
  | Some (None, _) -> "origin"
  | Some (Some rel, path) ->
      Format.asprintf "%a [%s]" Policy.pp_relationship rel
        (String.concat " " (List.map Asn.to_string path))

let qcheck_gao_rexford_steady_state =
  QCheck.Test.make ~name:"steady state equals the Gao-Rexford routing tree"
    ~count:40
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.create seed in
      let graph =
        Generate.generate rng
          { Generate.n_tier1 = 2 + Rng.int rng 3;
            n_transit = 2 + Rng.int rng 10;
            n_stub = 3 + Rng.int rng 20;
            transit_max_providers = 1 + Rng.int rng 3;
            stub_max_providers = 1 + Rng.int rng 3;
            transit_peer_degree = Rng.float rng *. 2.0 }
      in
      let ases = Array.of_list (Graph.ases graph) in
      let configs =
        Array.to_list
          (Array.map
             (fun asn ->
               let mrai = if Rng.int rng 3 = 0 then 30.0 else 0.0 in
               { Router.asn;
                 neighbors =
                   List.map
                     (fun (n, relationship) ->
                       { Router.neighbor_asn = n; relationship; mrai })
                     (Graph.neighbors graph asn);
                 rfd_scope = Policy.No_rfd;
                 rfd_params = Rfd_params.cisco })
             ases)
      in
      let pick () = ases.(Rng.int rng (Array.length ases)) in
      let monitored = Asn.Set.of_list (List.init 3 (fun _ -> pick ())) in
      let salt = Rng.int rng 1_000 in
      let delay ~from_asn ~to_asn =
        let h = (Asn.to_int from_asn * 7919) + (Asn.to_int to_asn * 31) + salt in
        0.01 +. (float_of_int (h mod 97) /. 50.0)
      in
      let net = Network.create ~configs ~delay ~monitored () in
      let beacons =
        List.init
          (1 + Rng.int rng 3)
          (fun k ->
            (Prefix.of_string (Printf.sprintf "10.%d.0.0/24" k), pick ()))
      in
      List.iteri
        (fun k (prefix, origin) ->
          Network.schedule_announce net ~time:(float_of_int k) ~origin prefix)
        beacons;
      Network.run net ~until:1e9;
      List.for_all
        (fun (prefix, origin) ->
          let tree = routing_tree graph origin in
          Array.for_all
            (fun asn ->
              let simulated =
                match Router.best_route (Network.router net asn) prefix with
                | None -> None
                | Some (Router.Origin _) -> Some (None, [])
                | Some (Router.Via { relationship; as_path; _ }) ->
                    Some (Some relationship, Apath.nodes as_path)
              in
              let expected = Hashtbl.find_opt tree asn in
              simulated = expected
              || QCheck.Test.fail_reportf "%s at AS %s: simulated %s, tree %s"
                   (Prefix.to_string prefix) (Asn.to_string asn)
                   (show_route simulated) (show_route expected))
            ases)
        beacons)

let suite =
  ( "sim",
    [
      Alcotest.test_case "heap orders" `Quick test_heap_orders;
      Alcotest.test_case "heap FIFO ties" `Quick test_heap_fifo_ties;
      Alcotest.test_case "heap size/empty" `Quick test_heap_size_empty;
      QCheck_alcotest.to_alcotest qcheck_heap_sorted;
      QCheck_alcotest.to_alcotest qcheck_heap_interleaved;
      Alcotest.test_case "engine order" `Quick test_engine_runs_in_order;
      Alcotest.test_case "engine until" `Quick test_engine_until;
      Alcotest.test_case "engine cascade" `Quick test_engine_handler_schedules;
      Alcotest.test_case "engine clamps past" `Quick test_engine_past_clamped;
      Alcotest.test_case "network propagation" `Quick test_network_propagation;
      Alcotest.test_case "network withdraw" `Quick test_network_withdraw;
      Alcotest.test_case "network unmonitored" `Quick
        test_network_unmonitored_silent;
      Alcotest.test_case "MRAI batches updates" `Quick test_network_mrai_batches;
      Alcotest.test_case "golden verify-world output" `Quick test_golden_output;
      Alcotest.test_case "golden verify-world tables" `Quick test_golden_tables;
      Alcotest.test_case "golden verify-world pipeline" `Quick
        test_golden_pipeline;
      QCheck_alcotest.to_alcotest qcheck_gao_rexford_steady_state;
    ] )

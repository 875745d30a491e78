(* Sharded-vs-sequential equivalence of the per-prefix simulation driver.

   The bit-for-bit guarantee under test: with an empty fault plan and no
   impairments, [Sharded.run ~jobs] must reproduce the sequential run's
   feeds, stats, and (empty) fault log exactly, for any [jobs].  With link
   faults, the link/session timeline must be independent of [jobs]. *)

open Because_bgp
module Network = Because_sim.Network
module Script = Because_sim.Script
module Sharded = Because_sim.Sharded
module Rng = Because_stats.Rng

let asn = Asn.of_int

let nb ?(mrai = 0.0) n relationship =
  { Router.neighbor_asn = asn n; relationship; mrai }

(* A randomized ladder world: the origin (AS 65001) sells transit up a chain
   of providers; the last transit serves the monitored stub (AS 900).  Extra
   peer rungs between transits create path diversity; one damping transit
   exercises RFD timers.  Delays are pseudo-random per AS pair so unrelated
   cascades almost never collide in time — exactly the regime of
   World.delay. *)
let make_world rng =
  let n_transit = 2 + Rng.int rng 4 in
  let origin = 65001 and monitor = 900 in
  let transit i = i + 1 in
  let mrai_of i = if Rng.float rng < 0.3 then 15.0 +. float_of_int i else 0.0 in
  let damper = transit (1 + Rng.int rng (n_transit - 1)) in
  let scope_of i =
    if i = damper then Policy.All_neighbors else Policy.No_rfd
  in
  let configs =
    ({ Router.asn = asn origin;
       neighbors = [ nb (transit 0) Policy.Provider ];
       rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco }
     :: List.init n_transit (fun k ->
            let i = transit k in
            let neighbors =
              (if k = 0 then [ nb origin Policy.Customer ] else [])
              @ (if k > 0 then [ nb (transit (k - 1)) Policy.Customer ]
                 else [])
              @ (if k < n_transit - 1 then
                   [ nb ~mrai:(mrai_of i) (transit (k + 1)) Policy.Provider ]
                 else [])
              @ if k = n_transit - 1 then [ nb monitor Policy.Customer ]
                else []
            in
            { Router.asn = asn i; neighbors; rfd_scope = scope_of i;
              rfd_params = Rfd_params.cisco }))
    @ [ { Router.asn = asn monitor;
          neighbors = [ nb (transit (n_transit - 1)) Policy.Provider ];
          rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco } ]
  in
  let delay ~from_asn ~to_asn =
    let a = Asn.to_int from_asn and b = Asn.to_int to_asn in
    0.31 +. (float_of_int (((a * 73) + (b * 151)) mod 97) *. 0.0713)
  in
  (configs, delay, origin, n_transit, Asn.Set.singleton (asn monitor))

(* Per-prefix flap timelines on an integer grid, recorded prefix block by
   prefix block — the same discipline Site.install and the background
   scheduler follow, so cross-prefix root ties land in first-touch order. *)
let make_script rng ~origin =
  let script = Script.create () in
  let n_prefixes = 2 + Rng.int rng 6 in
  for k = 0 to n_prefixes - 1 do
    let p = Prefix.beacon ~site:(k / 4) ~slot:(k mod 4) in
    let t0 = float_of_int (Rng.int rng 4) in
    Script.announce script ~time:t0 ~origin:(asn origin) p;
    let flaps = 2 + Rng.int rng 8 in
    let gap = float_of_int (30 + (10 * Rng.int rng 5)) in
    for f = 1 to flaps do
      let time = t0 +. (float_of_int f *. gap) in
      if f mod 2 = 1 then Script.withdraw script ~time ~origin:(asn origin) p
      else Script.announce script ~time ~origin:(asn origin) p
    done
  done;
  script

let run ?fault_rng_seed ?shards ~jobs ~with_flap
    (configs, delay, origin, n_transit, monitored) script =
  let script =
    if not with_flap then script
    else begin
      (* Flap the middle rung: prefix-agnostic, replayed into every shard. *)
      let s = Script.create () in
      List.iter
        (fun op ->
          match op with
          | Script.Announce { time; origin; prefix } ->
              Script.announce s ~time ~origin prefix
          | Script.Withdraw { time; origin; prefix } ->
              Script.withdraw s ~time ~origin prefix
          | _ -> ())
        (Script.ops script);
      let mid = max 1 (n_transit / 2) in
      Script.link_down s ~time:90.0 ~a:(asn mid) ~b:(asn (mid + 1));
      Script.link_up s ~time:210.0 ~a:(asn mid) ~b:(asn (mid + 1));
      Script.session_reset s ~time:400.0 ~a:(asn 1) ~b:(asn origin);
      s
    end
  in
  let fault_rng = Option.map Rng.create fault_rng_seed in
  Sharded.run ?fault_rng ?shards ~jobs ~configs ~delay ~monitored
    ~until:2000.0 script

let check_feeds_equal what a b =
  let feeds_a = Sharded.feeds a and feeds_b = Sharded.feeds b in
  Alcotest.(check int) (what ^ ": vantage count") (List.length feeds_a)
    (List.length feeds_b);
  List.iter2
    (fun (asn_a, feed_a) (asn_b, feed_b) ->
      Alcotest.(check int) (what ^ ": vantage") (Asn.to_int asn_a)
        (Asn.to_int asn_b);
      Alcotest.(check int)
        (Printf.sprintf "%s: feed length of AS%d" what (Asn.to_int asn_a))
        (List.length feed_a) (List.length feed_b);
      List.iter2
        (fun (ta, ua) (tb, ub) ->
          if not (Float.equal ta tb && Update.equal ua ub) then
            Alcotest.failf "%s: feed mismatch at t=%.4f vs t=%.4f (%a vs %a)"
              what ta tb Update.pp ua Update.pp ub)
        feed_a feed_b)
    feeds_a feeds_b

let check_stats_equal what (a : Network.stats) (b : Network.stats) =
  let pairs =
    [ ("deliveries", a.deliveries, b.deliveries);
      ("announcements", a.announcements, b.announcements);
      ("withdrawals", a.withdrawals, b.withdrawals);
      ("lost", a.lost, b.lost);
      ("duplicated", a.duplicated, b.duplicated);
      ("session_drops", a.session_drops, b.session_drops);
      ("session_recoveries", a.session_recoveries, b.session_recoveries) ]
  in
  List.iter
    (fun (f, x, y) -> Alcotest.(check int) (what ^ ": " ^ f) x y)
    pairs

let link_layer log =
  List.filter
    (fun (_, ev) ->
      match ev with
      | Network.Fault_link_down _ | Network.Fault_link_up _
      | Network.Fault_session_reset _ | Network.Fault_session_down _
      | Network.Fault_session_up _ -> true
      | Network.Fault_update_lost _ | Network.Fault_update_duplicated _ ->
          false)
    log

let qcheck_fault_free_equivalence =
  QCheck.Test.make ~name:"sharded == sequential (fault-free, any jobs)"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let world = make_world rng in
      let _, _, origin, _, _ = world in
      let script = make_script rng ~origin in
      let sequential = run ~jobs:1 ~with_flap:false world script in
      List.iter
        (fun jobs ->
          let sharded = run ~jobs ~with_flap:false world script in
          let what = Printf.sprintf "seed %d jobs %d" seed jobs in
          check_feeds_equal what sequential sharded;
          check_stats_equal what sequential.Sharded.stats
            sharded.Sharded.stats;
          Alcotest.(check int)
            (what ^ ": fault log empty") 0
            (List.length sharded.Sharded.fault_log);
          Alcotest.(check int)
            (what ^ ": events conserved") sequential.Sharded.events
            sharded.Sharded.events)
        [ 2; 4; 32 ];
      true)

let qcheck_link_fault_timeline =
  QCheck.Test.make
    ~name:"link/session fault timeline independent of jobs" ~count:20
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 101) in
      let world = make_world rng in
      let _, _, origin, _, _ = world in
      let script = make_script rng ~origin in
      let sequential = run ~jobs:1 ~with_flap:true world script in
      List.iter
        (fun jobs ->
          let sharded = run ~jobs ~with_flap:true world script in
          let seq_links = link_layer sequential.Sharded.fault_log in
          let shd_links = link_layer sharded.Sharded.fault_log in
          Alcotest.(check int)
            (Printf.sprintf "seed %d jobs %d: link timeline length" seed jobs)
            (List.length seq_links) (List.length shd_links);
          List.iter2
            (fun (ta, ea) (tb, eb) ->
              if not (Float.equal ta tb && ea = eb) then
                Alcotest.failf "seed %d jobs %d: link event mismatch at %.3f"
                  seed jobs ta)
            seq_links shd_links)
        [ 2; 4 ];
      true)

(* Shards beyond the pool's seats queue and run as domains free up; the
   fault-free outcome must not care. *)
let test_shards_exceed_jobs () =
  let rng = Rng.create 31 in
  let world = make_world rng in
  let _, _, origin, _, _ = world in
  let script = make_script rng ~origin in
  let sequential = run ~jobs:1 ~with_flap:false world script in
  let queued = run ~jobs:2 ~shards:8 ~with_flap:false world script in
  Alcotest.(check int) "shards clamped to prefixes"
    (min 8 (Script.n_prefixes script))
    queued.Sharded.shards;
  check_feeds_equal "jobs=2 shards=8" sequential queued;
  check_stats_equal "jobs=2 shards=8" sequential.Sharded.stats
    queued.Sharded.stats;
  Alcotest.(check int) "events conserved" sequential.Sharded.events
    queued.Sharded.events;
  Alcotest.check_raises "shards = 0 rejected"
    (Invalid_argument "Sharded.run: shards must be positive") (fun () ->
      ignore (run ~jobs:2 ~shards:0 ~with_flap:false world script))

let test_shards_clamped () =
  let rng = Rng.create 7 in
  let world = make_world rng in
  let _, _, origin, _, _ = world in
  let script = make_script rng ~origin in
  let r = run ~jobs:64 ~with_flap:false world script in
  Alcotest.(check bool) "shards bounded by prefix count" true
    (r.Sharded.shards <= Script.n_prefixes script);
  let r1 = run ~jobs:1 ~with_flap:false world script in
  Alcotest.(check int) "single shard at jobs=1" 1 r1.Sharded.shards

let test_invalid_jobs () =
  let rng = Rng.create 8 in
  let world = make_world rng in
  let _, _, origin, _, _ = world in
  let script = make_script rng ~origin in
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Sharded.run: jobs must be positive") (fun () ->
      ignore (run ~jobs:0 ~with_flap:false world script))

let test_empty_script () =
  let configs, delay, _, _, monitored =
    make_world (Rng.create 9)
  in
  let script = Script.create () in
  let r =
    Sharded.run ~jobs:4 ~configs ~delay ~monitored ~until:100.0 script
  in
  Alcotest.(check int) "no events" 0 r.Sharded.events;
  Alcotest.(check int) "no faults" 0 (List.length r.Sharded.fault_log)

let test_script_ranks () =
  let script = Script.create () in
  let p1 = Prefix.of_string "10.0.0.0/24"
  and p2 = Prefix.of_string "10.0.1.0/24" in
  Script.announce script ~time:5.0 ~origin:(asn 1) p2;
  Script.withdraw script ~time:9.0 ~origin:(asn 1) p1;
  Script.announce script ~time:1.0 ~origin:(asn 1) p2;
  Alcotest.(check (option int)) "first touch wins" (Some 0)
    (Script.rank script p2);
  Alcotest.(check (option int)) "second prefix" (Some 1)
    (Script.rank script p1);
  Alcotest.(check int) "two prefixes" 2 (Script.n_prefixes script);
  Alcotest.(check bool) "no faults recorded" false (Script.has_faults script);
  Script.link_down script ~time:3.0 ~a:(asn 1) ~b:(asn 2);
  Alcotest.(check bool) "fault recorded" true (Script.has_faults script)

let suite =
  ( "sharded",
    [
      QCheck_alcotest.to_alcotest qcheck_fault_free_equivalence;
      QCheck_alcotest.to_alcotest qcheck_link_fault_timeline;
      Alcotest.test_case "shards exceed jobs" `Quick test_shards_exceed_jobs;
      Alcotest.test_case "shards clamped" `Quick test_shards_clamped;
      Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
      Alcotest.test_case "empty script" `Quick test_empty_script;
      Alcotest.test_case "script ranks" `Quick test_script_ranks;
    ] )

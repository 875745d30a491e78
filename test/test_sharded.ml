(* Equivalence of the per-prefix simulation driver.

   The bit-for-bit guarantee under test: with an empty fault plan and no
   impairments, [Sharded.run ~jobs] must reproduce the sequential run's
   feeds, stats, and (empty) fault log exactly, for any [jobs].  With link
   faults, the link/session timeline must be independent of [jobs]; with
   lossy, duplicating sessions, so must everything else.  Under faults and
   impairments the merged feeds, stats and fault log must also equal one
   network replaying the whole script. *)

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

(* The script with the middle rung flapped and the origin's session reset:
   prefix-agnostic ops, replayed into every shard. *)
let with_link_faults (_, _, origin, n_transit, _) script =
  let s = Script.create () in
  List.iter
    (fun op ->
      match op with
      | Script.Announce { time; origin; prefix } ->
          Script.announce s ~time ~origin prefix
      | Script.Withdraw { time; origin; prefix } ->
          Script.withdraw s ~time ~origin prefix
      | Script.Impair { a; b; loss; duplication } ->
          Script.impair s ~a ~b ~loss ~duplication
      | _ -> ())
    (Script.ops script);
  let mid = max 1 (n_transit / 2) in
  Script.link_down s ~time:90.0 ~a:(asn mid) ~b:(asn (mid + 1));
  Script.link_up s ~time:210.0 ~a:(asn mid) ~b:(asn (mid + 1));
  Script.session_reset s ~time:400.0 ~a:(asn 1) ~b:(asn origin);
  s

let until = 2000.0

let run ?fault_seed ~jobs ~with_flap world script =
  let configs, delay, _, _, monitored = world in
  let script = if with_flap then with_link_faults world script else script in
  Sharded.run ?fault_seed ~jobs ~configs ~delay ~monitored ~until script

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

(* Impairment draws are keyed by link, prefix and delivery index, so a
   lossy, duplicating session gives every partition the same run: feeds,
   stats and the whole fault log, equal-time entries included, with link
   flaps and a session reset re-advertising every prefix at once. *)
let qcheck_impaired_equivalence =
  QCheck.Test.make ~name:"sharded == sequential (impaired, any jobs)"
    ~count:20 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 201) in
      let world = make_world rng in
      let _, _, origin, _, _ = world in
      let script = make_script rng ~origin in
      Script.impair script ~a:(asn origin) ~b:(asn 1) ~loss:0.3
        ~duplication:0.3;
      let run jobs = run ~fault_seed:seed ~jobs ~with_flap:true world script in
      let sequential = run 1 in
      List.iter
        (fun jobs ->
          let sharded = run jobs in
          let what = Printf.sprintf "seed %d jobs %d" seed jobs in
          check_feeds_equal what sequential sharded;
          check_stats_equal what sequential.Sharded.stats
            sharded.Sharded.stats;
          Alcotest.(check bool) (what ^ ": fault log") true
            (sequential.Sharded.fault_log = sharded.Sharded.fault_log))
        [ 2; 4; 32 ];
      sequential.Sharded.stats.Network.lost > 0)

(* Shards beyond the pool's seats queue and run as domains free up; the
   fault-free outcome must not care. *)
let test_shards_exceed_jobs () =
  let rng = Rng.create 31 in
  let world = make_world rng in
  let _, _, origin, _, _ = world in
  let script = make_script rng ~origin in
  Alcotest.(check bool) "more prefixes than jobs" true
    (Script.n_prefixes script > 2);
  let sequential = run ~jobs:1 ~with_flap:false world script in
  let queued = run ~jobs:2 ~with_flap:false world script in
  Alcotest.(check int) "one shard per prefix" (Script.n_prefixes script)
    queued.Sharded.shards;
  check_feeds_equal "jobs=2" sequential queued;
  check_stats_equal "jobs=2" sequential.Sharded.stats queued.Sharded.stats;
  Alcotest.(check int) "events conserved" sequential.Sharded.events
    queued.Sharded.events

let test_shards_clamped () =
  let rng = Rng.create 7 in
  let world = make_world rng in
  let _, _, origin, _, _ = world in
  let script = make_script rng ~origin in
  List.iter
    (fun jobs ->
      let r = run ~jobs ~with_flap:false world script in
      let what = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check int) (what ^ ": one shard per prefix")
        (Script.n_prefixes script) r.Sharded.shards;
      Alcotest.(check int) (what ^ ": events per shard") r.Sharded.shards
        (Array.length r.Sharded.shard_events))
    [ 1; 64 ]

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
  Alcotest.(check int) "one shard" 1 r.Sharded.shards;
  Alcotest.(check int) "no events" 0 r.Sharded.events;
  Alcotest.(check int) "no faults" 0 (List.length r.Sharded.fault_log)

(* Order on time, equal times by the first-touch rank of [key]'s prefix;
   [List.stable_sort] keeps each prefix's own equal-time entries in their
   recorded order. *)
let by_time_then_rank key ((ta : float), a) (tb, b) =
  match Float.compare ta tb with 0 -> Int.compare (key a) (key b) | c -> c

let rank_of script prefix = Option.get (Script.rank script prefix)

(* Link and session transitions sort before every prefix at one instant. *)
let fault_rank script = function
  | Network.Fault_update_lost { prefix; _ }
  | Network.Fault_update_duplicated { prefix; _ } -> rank_of script prefix
  | Network.Fault_link_down _ | Network.Fault_link_up _
  | Network.Fault_session_reset _ | Network.Fault_session_down _
  | Network.Fault_session_up _ -> -1

(* Equal-time entries of different prefixes in one feed: the link flap and
   the session reset re-advertise every prefix at once. *)
let cross_prefix_ties feed =
  let rec go n = function
    | (ta, ua) :: ((tb, ub) :: _ as rest) ->
        let tie =
          Float.equal ta tb
          && not (Prefix.equal (Update.prefix ua) (Update.prefix ub))
        in
        go (if tie then n + 1 else n) rest
    | [] | [ _ ] -> n
  in
  go 0 feed

(* The same script with the prefixes' addresses in reverse first-touch
   order.  A re-advertising router sends its prefixes in address order, so
   after a session reset one network holding all of them records them out
   of rank order at one instant. *)
let reverse_addresses script =
  let prefixes = Array.of_list (Script.prefixes script) in
  let n = Array.length prefixes in
  let rename p = prefixes.(n - 1 - Option.get (Script.rank script p)) in
  let s = Script.create () in
  List.iter
    (function
      | Script.Announce { time; origin; prefix } ->
          Script.announce s ~time ~origin (rename prefix)
      | Script.Withdraw { time; origin; prefix } ->
          Script.withdraw s ~time ~origin (rename prefix)
      | Script.Session_reset { time; a; b } ->
          Script.session_reset s ~time ~a ~b
      | Script.Link_down { time; a; b } -> Script.link_down s ~time ~a ~b
      | Script.Link_up { time; a; b } -> Script.link_up s ~time ~a ~b
      | Script.Impair { a; b; loss; duplication } ->
          Script.impair s ~a ~b ~loss ~duplication)
    (Script.ops script);
  s

(* Replay one faulted, impaired script over the per-prefix shards and into
   one network: every merged feed must equal the one network's feed
   stable-sorted on (time, prefix rank), and the stats and the whole fault
   log must match too.  [events] is not compared: every shard replays the
   link and session faults.  Odd seeds reverse the prefix addresses.
   Returns the cross-prefix ties in the merged feeds. *)
let check_one_network seed =
  let rng = Rng.create (seed + 301) in
  let world = make_world rng in
  let configs, delay, origin, _, monitored = world in
  let script = make_script rng ~origin in
  let script = if seed mod 2 = 1 then reverse_addresses script else script in
  Script.impair script ~a:(asn origin) ~b:(asn 1) ~loss:0.2 ~duplication:0.2;
  let script = with_link_faults world script in
  let r =
    Sharded.run ~fault_seed:seed ~jobs:(1 + (seed mod 2)) ~configs ~delay
      ~monitored ~until script
  in
  let net = Network.create ~fault_seed:seed ~configs ~delay ~monitored () in
  Script.install script net;
  Network.run net ~until;
  let what = Printf.sprintf "seed %d" seed in
  let feed_order =
    by_time_then_rank (fun u -> rank_of script (Update.prefix u))
  in
  let ties = ref 0 in
  List.iter
    (fun (asn, feed) ->
      ties := !ties + cross_prefix_ties feed;
      if feed <> List.stable_sort feed_order (Network.feed net asn) then
        Alcotest.failf "%s: AS%d feed differs from one network" what
          (Asn.to_int asn))
    (Sharded.feeds r);
  check_stats_equal what (Network.stats net) r.Sharded.stats;
  Alcotest.(check bool) (what ^ ": fault log") true
    (List.stable_sort (by_time_then_rank (fault_rank script))
       (Network.fault_log net)
    = r.Sharded.fault_log);
  !ties

let qcheck_one_network_reference =
  QCheck.Test.make
    ~name:"sharded == one network (faulted, impaired, reversed)" ~count:20
    QCheck.small_int (fun seed ->
      ignore (check_one_network seed : int);
      true)

(* Seed 1 exercises the hard case of the merge: equal-time entries of
   different prefixes, which only the shard index (prefix rank) orders. *)
let test_feed_ties () =
  Alcotest.(check bool) "cross-prefix ties" true (check_one_network 1 > 0)

(* A script of origin ops over a few prefixes, with link, session and
   impairment ops interleaved at random recording positions. *)
let random_script rng =
  let script = Script.create () in
  let n_prefixes = 1 + Rng.int rng 6 in
  let prefix k = Prefix.beacon ~site:(k / 4) ~slot:(k mod 4) in
  for _ = 1 to 5 + Rng.int rng 40 do
    let time = float_of_int (Rng.int rng 100) in
    let a = asn 1 and b = asn 2 in
    let p () = prefix (Rng.int rng n_prefixes) in
    match Rng.int rng 6 with
    | 0 -> Script.announce script ~time ~origin:a (p ())
    | 1 -> Script.withdraw script ~time ~origin:a (p ())
    | 2 -> Script.session_reset script ~time ~a ~b
    | 3 -> Script.link_down script ~time ~a ~b
    | 4 -> Script.link_up script ~time ~a ~b
    | _ -> Script.impair script ~a ~b ~loss:0.1 ~duplication:0.0
  done;
  script

(* Shard [k] holds the origin ops of the prefix of rank [k] and every
   prefix-agnostic op; a script without origin ops is one shard. *)
let qcheck_partition_matches_filter =
  QCheck.Test.make ~name:"partitioned ops == per-shard prefix filter"
    ~count:100 QCheck.small_int (fun seed ->
      let script = random_script (Rng.create (seed + 401)) in
      let kept shard =
        List.filter
          (function
            | Script.Announce { prefix; _ } | Script.Withdraw { prefix; _ } ->
                rank_of script prefix = shard
            | Script.Session_reset _ | Script.Link_down _ | Script.Link_up _
            | Script.Impair _ -> true)
          (Script.ops script)
      in
      let partition = Script.partition script in
      let shards = max 1 (Script.n_prefixes script) in
      Script.n_shards partition = shards
      && List.for_all
           (fun shard -> Script.shard_ops partition shard = kept shard)
           (List.init shards Fun.id))

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
  Alcotest.(check int) "two prefixes" 2 (Script.n_prefixes script)

let suite =
  ( "sharded",
    [
      QCheck_alcotest.to_alcotest qcheck_fault_free_equivalence;
      QCheck_alcotest.to_alcotest qcheck_link_fault_timeline;
      QCheck_alcotest.to_alcotest qcheck_impaired_equivalence;
      Alcotest.test_case "shards exceed jobs" `Quick test_shards_exceed_jobs;
      Alcotest.test_case "shards clamped" `Quick test_shards_clamped;
      Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
      Alcotest.test_case "empty script" `Quick test_empty_script;
      Alcotest.test_case "script ranks" `Quick test_script_ranks;
      QCheck_alcotest.to_alcotest qcheck_one_network_reference;
      Alcotest.test_case "feed cross-prefix ties" `Quick test_feed_ties;
      QCheck_alcotest.to_alcotest qcheck_partition_matches_filter;
    ] )

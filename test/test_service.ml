(* The always-on service: admission control, supervision, isolation,
   graceful drain and whole-service crash recovery.

   The heart of this suite is the service-level crash property: a service
   running several concurrent campaigns under severe injected faults,
   hard-killed at an arbitrary checkpoint boundary and warm-started, must
   complete every campaign with reports byte-for-byte identical to an
   uninterrupted service's — for 1 and 4 worker domains alike. *)

module Service = Because_service.Service
module Sspec = Because_service.Spec
module Store = Because_service.Store
module Supervise = Because_recover.Supervise
module Codec = Because_recover.Codec

let fresh_dir () =
  let f = Filename.temp_file "because-service" ".dir" in
  Sys.remove f;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

(* Every test must leave the process-wide drain flag down: it is global
   state, and a leak would silently drain every later suite. *)
let with_drain_reset f =
  Fun.protect ~finally:(fun () -> Supervise.clear_drain ()) f

let tiny_spec ?(seed = 42) ?(faults = "none") id =
  { (Sspec.default ~id) with
    Sspec.seed;
    transit = 6;
    stub = 14;
    vantage_hosts = 5;
    samples = 80;
    burn_in = 40;
    faults }

let cfg ?(limit = 16) ?(jobs = 1) ?(max_attempts = 3) ?kill ?chaos ~dir () =
  { (Service.default_config ~state_dir:dir) with
    Service.limit;
    jobs;
    max_attempts;
    kill_after_saves = kill;
    chaos }

(* The ISSUE's soak shape: four concurrent campaigns, severe faults. *)
let soak_specs =
  [ tiny_spec ~seed:1 ~faults:"severe" "c1";
    tiny_spec ~seed:2 ~faults:"severe" "c2";
    tiny_spec ~seed:3 ~faults:"severe" "c3";
    tiny_spec ~seed:4 ~faults:"severe" "c4" ]

let submit_ok svc spec =
  match Service.submit svc spec with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "submit %s: %s" spec.Sspec.id
                 (Service.reason_to_string r)

let reports svc specs =
  List.map
    (fun (s : Sspec.t) ->
      (s.Sspec.id, read_file (Service.report_path svc ~id:s.Sspec.id)))
    specs

(* Uninterrupted reference run over the soak specs, once per process. *)
let soak_reference =
  lazy
    (let dir = fresh_dir () in
     let svc = Service.create (cfg ~jobs:1 ~dir ()) in
     List.iter (submit_ok svc) soak_specs;
     (match Service.run_until_idle svc with
     | Service.Completed -> ()
     | _ -> Alcotest.fail "reference run did not complete");
     reports svc soak_specs)

(* ------------------------------------------------------------------ *)
(* Spec                                                                 *)

let test_spec_roundtrip () =
  let spec = tiny_spec ~seed:9 ~faults:"severe" "round-trip_1.a" in
  (match Sspec.of_line (Sspec.to_line spec) with
  | Ok back -> Alcotest.(check bool) "roundtrip" true (Sspec.equal spec back)
  | Error e -> Alcotest.fail e);
  (* Defaults fill missing keys; id is required. *)
  (match Sspec.of_line "id=x seed=7" with
  | Ok s ->
      Alcotest.(check int) "seed parsed" 7 s.Sspec.seed;
      Alcotest.(check int) "default samples" 400 s.Sspec.samples
  | Error e -> Alcotest.fail e);
  (match Sspec.of_line "seed=7" with
  | Ok _ -> Alcotest.fail "missing id accepted"
  | Error e -> Alcotest.(check bool) "id required" true (contains ~sub:"id" e));
  (match Sspec.of_line "id=x bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error _ -> ());
  (match Sspec.of_line "id=x faults=catastrophic" with
  | Ok _ -> Alcotest.fail "unknown severity accepted"
  | Error _ -> ());
  match Sspec.validate { spec with Sspec.id = "bad id" } with
  | Ok _ -> Alcotest.fail "spacey id accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)

let submit_seq svc spec =
  match Service.submit svc spec with
  | Ok seq -> seq
  | Error r ->
      Alcotest.failf "submit %s: %s" spec.Sspec.id (Service.reason_to_string r)

let ids svc =
  List.map
    (fun (e : Store.entry) -> (e.Store.spec.Sspec.id, e.Store.seq))
    (Store.entries (Service.store svc))

let run_completed svc =
  match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "service did not complete"

(* Admission is a query over the store: typed reasons in order (draining,
   duplicate, queue full), monotonic sequence numbers, ids that stay taken
   after their campaign finishes, and readmitted entries that keep their
   original sequence number and FIFO place. *)
let test_admission_rejections () =
  with_drain_reset @@ fun () ->
  (match Service.create (cfg ~limit:0 ~dir:(fresh_dir ()) ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "limit 0 accepted");
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~limit:2 ~dir ()) in
  Alcotest.(check int) "seq 0" 0 (submit_seq svc (tiny_spec "a"));
  Alcotest.(check int) "seq 1" 1 (submit_seq svc (tiny_spec "b"));
  (* Duplicate is checked before the (now full) queue. *)
  (match Service.submit svc (tiny_spec ~seed:9 "a") with
  | Error (Service.Duplicate { id }) -> Alcotest.(check string) "dup id" "a" id
  | _ -> Alcotest.fail "duplicate admitted");
  (match Service.submit svc (tiny_spec "c") with
  | Error (Service.Queue_full { limit }) ->
      Alcotest.(check int) "limit reported" 2 limit
  | _ -> Alcotest.fail "over-limit admitted");
  (* Running frees capacity but never the id. *)
  run_completed svc;
  (match Service.submit svc (tiny_spec "a") with
  | Error (Service.Duplicate _) -> ()
  | _ -> Alcotest.fail "finished id reusable");
  Alcotest.(check int) "seq 2" 2 (submit_seq svc (tiny_spec "c"));
  (* Draining is checked before everything else, duplicates included. *)
  Service.drain svc;
  (match Service.submit svc (tiny_spec "a") with
  | Error Service.Draining -> ()
  | _ -> Alcotest.fail "draining service accepted a duplicate");
  (match Service.join svc with
  | Service.Drained -> ()
  | _ -> Alcotest.fail "drained service did not report Drained");
  Service.reset_drain svc;
  (* Completed ids stay taken across a warm start, and the pending "c"
     keeps its sequence number. *)
  let reloaded = Service.load (cfg ~limit:2 ~dir ()) in
  (match Service.submit reloaded (tiny_spec "b") with
  | Error (Service.Duplicate _) -> ()
  | _ -> Alcotest.fail "completed id free after load");
  Alcotest.(check (list (pair string int))) "seqs survive load"
    [ ("a", 0); ("b", 1); ("c", 2) ] (ids reloaded);
  Alcotest.(check int) "seq 3" 3 (submit_seq reloaded (tiny_spec "d"))

(* A campaign interrupted mid-run is readmitted at its original sequence
   number and is claimed ahead of everything submitted after it.  The kill
   lands inside "a"'s inference, on its sixteenth save (after its 14
   simulation shards, one per prefix, and a chain snapshot): seed 5's tiny
   world labels RFD paths, so its chains are sampled and save. *)
let test_readmit_keeps_fifo_place () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let killed = Service.create (cfg ~kill:15 ~dir ()) in
  submit_ok killed (tiny_spec ~seed:5 "a");
  submit_ok killed (tiny_spec ~seed:7 "b");
  (match Service.run_until_idle killed with
  | Service.Killed -> ()
  | _ -> Alcotest.fail "chaos kill did not trip");
  Alcotest.(check bool) "killed after a chain snapshot of a" true
    (Array.exists
       (fun f -> contains ~sub:".chain" f)
       (Sys.readdir (Filename.concat (Filename.concat dir "campaigns") "a")));
  let order = ref [] in
  let mu = Mutex.create () in
  let chaos ~id ~attempt:_ =
    Mutex.protect mu (fun () -> order := id :: !order);
    None
  in
  let resumed = Service.load (cfg ~chaos ~dir ()) in
  Alcotest.(check int) "both pending" 2 (Service.pending resumed);
  Alcotest.(check int) "seq 2" 2 (submit_seq resumed (tiny_spec ~seed:8 "c"));
  run_completed resumed;
  Alcotest.(check (list string)) "claimed in seq order" [ "a"; "b"; "c" ]
    (List.rev !order);
  Alcotest.(check (list (pair string int))) "seqs kept"
    [ ("a", 0); ("b", 1); ("c", 2) ] (ids resumed)

(* After a warm start where every earlier campaign finished, the next
   submission continues the sequence instead of restarting it at 0 (which
   would list it before the campaigns submitted earlier). *)
let test_warm_restart_continues_seq () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~dir ()) in
  List.iter (submit_ok svc)
    [ tiny_spec "a"; tiny_spec ~seed:5 "b"; tiny_spec ~seed:6 "c" ];
  run_completed svc;
  let warm = Service.load (cfg ~dir ()) in
  Alcotest.(check int) "d gets seq 3" 3 (submit_seq warm (tiny_spec ~seed:8 "d"));
  let expected = [ ("a", 0); ("b", 1); ("c", 2); ("d", 3) ] in
  Alcotest.(check (list (pair string int))) "entries in submission order"
    expected (ids warm);
  run_completed warm;
  Alcotest.(check (list (pair string int))) "order survives a second load"
    expected (ids (Service.load (cfg ~dir ())))

let test_service_admission () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~limit:2 ~dir ()) in
  submit_ok svc (tiny_spec "a");
  submit_ok svc (tiny_spec "b");
  (match Service.submit svc (tiny_spec "c") with
  | Error (Service.Queue_full { limit = 2 }) -> ()
  | _ -> Alcotest.fail "no backpressure past the limit");
  (match Service.submit svc (tiny_spec "a") with
  | Error (Service.Duplicate _) -> ()
  | _ -> Alcotest.fail "duplicate id admitted");
  (match Service.submit svc { (tiny_spec "ok") with Sspec.cycles = 0 } with
  | Error (Service.Invalid _) -> ()
  | _ -> Alcotest.fail "invalid spec admitted");
  Alcotest.(check int) "both queued" 2 (Service.pending svc);
  Service.drain svc;
  (match Service.submit svc (tiny_spec "d") with
  | Error Service.Draining -> ()
  | _ -> Alcotest.fail "draining service admitted");
  (match Service.run_until_idle svc with
  | Service.Drained -> ()
  | _ -> Alcotest.fail "drained service did not report Drained");
  Service.reset_drain svc

(* ------------------------------------------------------------------ *)
(* Completion and the results store                                     *)

let test_service_completes () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~jobs:2 ~dir ()) in
  let specs = [ tiny_spec "alpha"; tiny_spec ~seed:7 "beta" ] in
  List.iter (submit_ok svc) specs;
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check int) "exit 0" 0 (Service.exit_code svc Service.Completed);
  List.iter
    (fun (s : Sspec.t) ->
      match Store.find (Service.store svc) ~id:s.Sspec.id with
      | None -> Alcotest.failf "%s missing from store" s.Sspec.id
      | Some e ->
          Alcotest.(check string)
            (s.Sspec.id ^ " healthy") "healthy"
            (Store.health_label e.Store.health);
          Alcotest.(check bool)
            (s.Sspec.id ^ " has estimates") true
            (Array.length e.Store.estimates > 0);
          let report = read_file (Service.report_path svc ~id:s.Sspec.id) in
          Alcotest.(check bool)
            (s.Sspec.id ^ " report status") true
            (contains ~sub:"status: healthy" report))
    specs;
  (match Store.rollup (Service.store svc) with
  | Supervise.Healthy -> ()
  | _ -> Alcotest.fail "rollup not healthy");
  Service.write_status svc;
  let json = read_file (Service.status_path svc) in
  Alcotest.(check bool) "status json schema" true
    (contains ~sub:"because-service/1" json);
  Alcotest.(check bool) "status json rollup" true
    (contains ~sub:"\"rollup\": \"healthy\"" json)

(* ------------------------------------------------------------------ *)
(* Whole-service kill + warm start, bit-for-bit                         *)

let qcheck_service_kill_restart =
  QCheck.Test.make
    ~name:"SIGKILL the service at a random save, warm-start, bit-for-bit"
    ~count:4
    QCheck.(pair (int_range 1 24) (int_range 0 1))
    (fun (kill_after, par) ->
      with_drain_reset @@ fun () ->
      let jobs = if par = 1 then 4 else 1 in
      let dir = fresh_dir () in
      let killed =
        Service.create (cfg ~jobs ~kill:kill_after ~dir ())
      in
      List.iter (submit_ok killed) soak_specs;
      let first = Service.run_until_idle killed in
      let final =
        match first with
        | Service.Completed -> killed (* kill point beyond the run's saves *)
        | Service.Killed ->
            let resumed = Service.load (cfg ~jobs ~dir ()) in
            (match Service.run_until_idle resumed with
            | Service.Completed -> resumed
            | _ -> Alcotest.fail "warm start did not complete")
        | Service.Drained -> Alcotest.fail "kill reported as drain"
      in
      reports final soak_specs = Lazy.force soak_reference)

(* ------------------------------------------------------------------ *)
(* Graceful drain mid-run, then resume                                  *)

let test_drain_and_resume () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~jobs:1 ~dir ()) in
  List.iter (submit_ok svc) soak_specs;
  Service.start svc;
  (* Let work actually start, then drain mid-campaign.  However the race
     lands — mid-simulation, mid-inference or between campaigns — the
     final reports must be unaffected. *)
  let deadline = 20_000_000 in
  let rec wait n =
    if Service.running svc = 0 && n < deadline then begin
      Domain.cpu_relax ();
      wait (n + 1)
    end
  in
  wait 0;
  Service.drain svc;
  (* Drain is idempotent: a second request (double SIGTERM) is absorbed,
     not an error, and the verdict is still a clean drain. *)
  Service.drain svc;
  (match Service.join svc with
  | Service.Drained -> ()
  | Service.Completed -> ()
  | Service.Killed -> Alcotest.fail "drain reported as kill");
  Service.reset_drain svc;
  let resumed = Service.load (cfg ~jobs:2 ~dir ()) in
  (match Service.run_until_idle resumed with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "post-drain warm start did not complete");
  Alcotest.(check bool) "reports equal the uninterrupted service's" true
    (reports resumed soak_specs = Lazy.force soak_reference)

(* ------------------------------------------------------------------ *)
(* Crash isolation and retry exhaustion                                 *)

let test_isolation_and_retry_exhaustion () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  (* Campaign "bad" crashes at its first checkpoint write on every
     attempt; its siblings must finish healthy and the service must keep
     accepting and running work afterwards. *)
  let chaos ~id ~attempt:_ = if id = "bad" then Some 1 else None in
  let svc = Service.create (cfg ~jobs:2 ~max_attempts:3 ~chaos ~dir ()) in
  submit_ok svc (tiny_spec "good1");
  submit_ok svc (tiny_spec ~seed:5 "bad");
  submit_ok svc (tiny_spec ~seed:6 "good2");
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "service exited instead of isolating the crash");
  let health id =
    match Store.find (Service.store svc) ~id with
    | Some e -> Store.health_label e.Store.health
    | None -> "missing"
  in
  Alcotest.(check string) "good1 healthy" "healthy" (health "good1");
  Alcotest.(check string) "good2 healthy" "healthy" (health "good2");
  Alcotest.(check string) "bad insufficient" "insufficient" (health "bad");
  (match Store.find (Service.store svc) ~id:"bad" with
  | Some e ->
      Alcotest.(check int) "all attempts burned" 3 e.Store.attempts;
      let report = read_file (Service.report_path svc ~id:"bad") in
      Alcotest.(check bool) "exhaustion reason in report" true
        (contains ~sub:"retry budget exhausted" report)
  | None -> Alcotest.fail "bad missing");
  (match Store.rollup (Service.store svc) with
  | Supervise.Insufficient _ -> ()
  | _ -> Alcotest.fail "rollup ignores the insufficient campaign");
  Alcotest.(check int) "exit 4" 4 (Service.exit_code svc Service.Completed);
  (* Still alive: new work is admitted and completes. *)
  submit_ok svc (tiny_spec ~seed:8 "late");
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "second generation did not complete");
  Alcotest.(check string) "late healthy" "healthy" (health "late")

(* ------------------------------------------------------------------ *)
(* Corrupt queue snapshot on warm start: quarantine + cold restart      *)

let test_corrupt_queue_warm_start () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let spec = tiny_spec "solo" in
  let svc = Service.create (cfg ~dir ()) in
  submit_ok svc spec;
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "seed run did not complete");
  let reference = read_file (Service.report_path svc ~id:"solo") in
  (* Garble the queue store's manifest: the fingerprint no longer
     matches, so the warm start must quarantine the snapshot and come up
     cold — warned, not crashed. *)
  let manifest = Filename.concat (Filename.concat dir "queue.d") "MANIFEST" in
  Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc "because-other-thing/99\n");
  let reloaded = Service.load (cfg ~dir ()) in
  Alcotest.(check bool) "quarantine warned" true
    (Service.warnings reloaded <> []);
  Alcotest.(check (list string)) "store is cold" []
    (List.map
       (fun (e : Store.entry) -> e.Store.spec.Sspec.id)
       (Store.entries (Service.store reloaded)));
  (* The id is free again; rerunning the campaign reproduces the report. *)
  submit_ok reloaded spec;
  (match Service.run_until_idle reloaded with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "cold restart did not complete");
  Alcotest.(check bool) "report reproduced bit-for-bit" true
    (String.equal reference
       (read_file (Service.report_path reloaded ~id:"solo")))

(* Version 1 queue snapshots, written before the streaming fields
   existed, still load: a pending streaming entry comes back as epoch 1,
   cold, with no observations read yet. *)
let test_v1_queue_snapshot_loads () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let queue_dir = Filename.concat dir "queue.d" in
  Because_recover.Io.mkdir_p queue_dir;
  let spec =
    { (Sspec.default ~id:"old") with Sspec.obs = Some "/tmp/old.obs" }
  in
  let w = Codec.writer () in
  Codec.int w 1;
  Codec.list w
    (fun w () ->
      Codec.string w (Sspec.to_line spec);
      Codec.int w 3;
      Codec.u8 w 0;
      Codec.list w Codec.string [];
      Codec.list w (fun _ () -> ()) [])
    [ () ];
  let ck =
    Because_recover.Checkpoint.open_ ~dir:queue_dir
      ~fingerprint:"because-service-queue/1" ()
  in
  Because_recover.Checkpoint.save ck ~key:"queue"
    (Codec.contents w);
  let svc = Service.load (cfg ~dir ()) in
  Alcotest.(check (list string)) "no warnings" [] (Service.warnings svc);
  match Store.find (Service.store svc) ~id:"old" with
  | None -> Alcotest.fail "v1 entry lost"
  | Some e ->
      Alcotest.(check int) "seq" 3 e.Store.seq;
      Alcotest.(check string) "requeued" "interrupted"
        (Store.health_label e.Store.health);
      Alcotest.(check int) "epoch 1" 1 e.Store.epoch;
      Alcotest.(check bool) "cold" false e.Store.warm;
      Alcotest.(check (option int)) "no gate" None e.Store.gate_sweeps;
      Alcotest.(check int) "0 observations" 0 e.Store.obs_count

(* ------------------------------------------------------------------ *)
(* Decoders of durable bytes under mutation                             *)

module Asn = Because_bgp.Asn

let shard_payload =
  let asn = Asn.of_int in
  let prefix = Because_bgp.Prefix.make 0x0A000100l 24 in
  Because_scenario.Recovery.encode_shard_result
    { Because_sim.Sharded.shard_feeds =
        [ ( asn 65001,
            [ ( 1.5,
                Because_bgp.Update.Announce
                  { prefix; as_path = [ asn 65002; asn 65003 ];
                    aggregator =
                      Some
                        { Because_bgp.Update.aggregator_asn = asn 65003;
                          sent_at = 1.0; valid = true } } );
              (2.5, Because_bgp.Update.Withdraw { prefix }) ] ) ];
      shard_stats =
        { Because_sim.Network.deliveries = 9; announcements = 5;
          withdrawals = 4; lost = 0; duplicated = 0; session_drops = 1;
          session_recoveries = 1 };
      shard_fault_log =
        [ ( 3.0,
            Because_sim.Network.Fault_session_down
              { owner = asn 65001; peer = asn 65002; reason = "reset" } ) ];
      shard_events_count = 42 }

let chain_payloads =
  let rng = Because_stats.Rng.(state (create 3)) in
  List.map Because_recover.Chain_ckpt.encode_saved
    [ { Because_recover.Chain_ckpt.state =
          Because_recover.Sampler_state.Mh
            { Because_mcmc.Metropolis.s_sweep = 4; s_rng = rng;
              s_current = [| 0.2; 0.7 |]; s_steps = [| 0.1; 0.1 |];
              s_log_post = -3.5; s_accept_window = [| 1; 2 |];
              s_kept = [| 0.2; 0.6; 0.3; 0.7 |]; s_accepted_post = 3;
              s_proposed_post = 4; s_cache = Some [| 1.0; 2.0 |] };
        layout = "w" };
      { state =
          Because_recover.Sampler_state.Hmc
            { Because_mcmc.Hmc.s_iter = 4; s_rng = rng;
              s_position = [| -1.0; 0.5 |]; s_step = 0.05;
              s_log_post = -2.0; s_accept_window = 3;
              s_kept = [| 0.2; 0.6 |]; s_accepted_post = 2;
              s_proposed_post = 2 };
        layout = "" } ]

(* A queue snapshot by hand, in either version: one finished campaign with
   two estimates and one pending streaming epoch. *)
let queue_payload ~version =
  let w = Codec.writer () in
  Codec.int w version;
  Codec.list w
    (fun w (spec, seq, tag, estimates) ->
      Codec.string w (Sspec.to_line spec);
      Codec.int w seq;
      Codec.u8 w tag;
      Codec.list w Codec.string [];
      Codec.list w
        (fun w (asn, mean) ->
          Codec.int w asn;
          List.iter (Codec.float w) [ mean; mean /. 2.0; mean *. 1.5 ];
          Codec.int w (if mean > 0.5 then 4 else 1);
          Codec.bool w (mean > 0.5))
        estimates;
      if version >= 2 then begin
        Codec.int w 2;
        Codec.bool w true;
        Codec.option w Codec.int (Some 120);
        Codec.int w 40
      end)
    [ (tiny_spec "done", 0, 1, [ (65001, 0.9); (65002, 0.1) ]);
      ( { (tiny_spec "stream") with Sspec.obs = Some "/nonexistent.obs" },
        1, 0, [] ) ];
  Codec.contents w

(* A mutation of [payload]: flip one bit, cut it short, or overwrite one
   8-byte word (a count, a length or a tag, often) with a lie. *)
let mutate payload (kind, pos, word) =
  let n = String.length payload in
  let b = Bytes.of_string payload in
  match kind with
  | 0 ->
      let i = pos mod n in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (word land 7)));
      Bytes.to_string b
  | 1 -> String.sub payload 0 (pos mod n)
  | _ ->
      let lies = [| -1L; -5L; 33L; 4_000_000L; 0x10000000L; Int64.max_int |] in
      Bytes.set_int64_le b (pos mod (n - 7))
        lies.(word mod Array.length lies);
      Bytes.to_string b

let decodes_or_malformed decode payload =
  match decode payload with
  | _ -> true
  | exception Codec.Malformed _ -> true

let queue_v1 = queue_payload ~version:1
let queue_v2 = queue_payload ~version:2

let mutation_gen =
  QCheck.(triple (int_bound 2) (int_bound 100_000) (int_bound 1000))

let qcheck_decoders_only_malformed =
  QCheck.Test.make ~name:"mutated snapshots raise only Malformed" ~count:300
    mutation_gen (fun m ->
      decodes_or_malformed Because_scenario.Recovery.decode_shard_result
        (mutate shard_payload m)
      && List.for_all
           (fun p ->
             decodes_or_malformed Because_recover.Chain_ckpt.decode_saved
               (mutate p m))
           chain_payloads)

(* The spec-line parser under the same mutations: a typed result, never
   an exception. *)
let qcheck_spec_line_mutants =
  let line = Sspec.to_line (tiny_spec ~seed:9 ~faults:"severe" "mutant_1.a") in
  QCheck.Test.make ~name:"mutated spec lines: Ok or Error, never raise"
    ~count:1000 mutation_gen (fun m ->
      match Sspec.of_line (mutate line m) with Ok _ | Error _ -> true)

(* A count the remaining bytes cannot hold fails before the reader
   allocates for it: 4,000,000 floats announced, one present. *)
let test_count_lie_allocates_nothing () =
  let w = Codec.writer () in
  Codec.int w 4_000_000;
  Codec.float w 1.0;
  let payload = Codec.contents w in
  let before = Gc.allocated_bytes () in
  (match Codec.read_float_array (Codec.reader payload) with
  | _ -> Alcotest.fail "lying count decoded"
  | exception Codec.Malformed _ -> ());
  Alcotest.(check bool) "under 64 kB allocated" true
    (Gc.allocated_bytes () -. before < 65536.0)

(* The same sealing, unmutated: both versions load every entry, so the
   mutation properties start from snapshots the service accepts. *)
let seal_queue ~dir payload =
  let queue_dir = Filename.concat dir "queue.d" in
  Because_recover.Io.mkdir_p queue_dir;
  let ck =
    Because_recover.Checkpoint.open_ ~dir:queue_dir
      ~fingerprint:"because-service-queue/1" ()
  in
  Because_recover.Checkpoint.save ck ~key:"queue" payload

let test_queue_snapshots_load () =
  with_drain_reset @@ fun () ->
  List.iter
    (fun payload ->
      let dir = fresh_dir () in
      seal_queue ~dir payload;
      let svc = Service.load (cfg ~dir ()) in
      Alcotest.(check (list string)) "no warnings" [] (Service.warnings svc);
      Alcotest.(check int) "both entries" 2
        (List.length (Store.entries (Service.store svc))))
    [ queue_v1; queue_v2 ]

(* Sealed with a valid checksum, so only the decoder stands between the
   mutated bytes and the service: a warm start must come up, never raise. *)
let qcheck_service_load_survives_mutation =
  QCheck.Test.make ~name:"Service.load survives mutated queue snapshots"
    ~count:60 mutation_gen (fun m ->
      with_drain_reset @@ fun () ->
      List.for_all
        (fun payload ->
          let dir = fresh_dir () in
          seal_queue ~dir (mutate payload m);
          ignore (Service.load (cfg ~dir ()));
          Because_recover.Io.rm_rf dir;
          true)
        [ queue_v1; queue_v2 ])

(* ------------------------------------------------------------------ *)
(* Reports are rewritten in place and rebuilt at load                   *)

(* What a crash in mid-write, or a stray writer, can leave of a report:
   cut short, junk appended, one byte changed, or no file at all. *)
let report_damages =
  let write path data =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc data)
  in
  [ ("truncated", fun path ->
        let r = read_file path in
        write path (String.sub r 0 (String.length r / 2)));
    ("junk appended", fun path ->
        Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path
          (fun oc -> Out_channel.output_string oc "\x00junk\n"));
    ("one byte changed", fun path ->
        let r = Bytes.of_string (read_file path) in
        Bytes.set r 0 (if Bytes.get r 0 = 'x' then 'y' else 'x');
        write path (Bytes.to_string r));
    ("missing", Sys.remove) ]

(* Damage the report of [id] each way in turn; every [load] must rebuild
   it byte for byte as [reference]. *)
let check_load_repairs ~load ~report_path reference =
  List.iter
    (fun (what, damage) ->
      damage report_path;
      ignore (load ());
      Alcotest.(check string) (what ^ ": report rebuilt") reference
        (read_file report_path))
    report_damages

let test_load_repairs_campaign_report () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~dir ()) in
  submit_ok svc (tiny_spec "solo");
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  let report_path = Service.report_path svc ~id:"solo" in
  check_load_repairs
    ~load:(fun () -> Service.load (cfg ~dir ()))
    ~report_path (read_file report_path)

(* A report that cannot be written is a note, not a dead worker.  A
   directory stands at the report's path (unlike a read-only chmod, this
   stops root too): the campaign still finishes Done, [pending] returns,
   a warning names the report, and once the directory is gone [load]
   rebuilds the report byte for byte from the queue snapshot. *)
let test_unwritable_report_is_a_note () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc = Service.create (cfg ~dir ()) in
  let report_path = Service.report_path svc ~id:"solo" in
  Sys.mkdir report_path 0o755;
  submit_ok svc (tiny_spec "solo");
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  (match Store.find (Service.store svc) ~id:"solo" with
  | Some { Store.health = Store.Done _; _ } -> ()
  | _ -> Alcotest.fail "solo not done");
  Alcotest.(check int) "pending returns" 0 (Service.pending svc);
  Alcotest.(check bool) "a note names the report" true
    (List.exists (contains ~sub:report_path) (Service.warnings svc));
  let reference =
    match Service.report_for svc ~id:"solo" with
    | `Done report -> report
    | `Unknown | `Pending -> Alcotest.fail "no report in memory"
  in
  Sys.rmdir report_path;
  ignore (Service.load (cfg ~dir ()));
  Alcotest.(check string) "report rebuilt at load" reference
    (read_file report_path)

(* The serve loop writes the status files every poll: an unchanged
   document is not rewritten, but [join] always writes. *)
let test_write_status_skips_unchanged () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let svc =
    Service.create
      { (cfg ~dir ()) with
        Service.telemetry = Because_telemetry.Registry.create () }
  in
  submit_ok svc (tiny_spec "solo");
  let writes = ref [] in
  let count f =
    Because_recover.Io.with_faults
      (fun op ->
        (match op with
        | Because_recover.Io.Write p -> writes := Filename.basename p :: !writes
        | Because_recover.Io.Rename _ -> ());
        None)
      f;
    let w = List.sort compare !writes in
    writes := [];
    w
  in
  Alcotest.(check (list string)) "two calls, one write per file"
    [ "metrics.prom"; "status.json" ]
    (count (fun () ->
         Service.write_status svc;
         Service.write_status svc));
  Alcotest.(check (list string)) "join writes even unchanged files"
    [ "metrics.prom"; "status.json" ]
    (count (fun () -> ignore (Service.join svc)))

let suite =
  ( "service",
    [
      Alcotest.test_case "spec line roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "admission rejections" `Quick
        test_admission_rejections;
      Alcotest.test_case "service admission + backpressure" `Quick
        test_service_admission;
      Alcotest.test_case "readmitted campaign keeps its FIFO place" `Quick
        test_readmit_keeps_fifo_place;
      Alcotest.test_case "warm restart continues the seq" `Quick
        test_warm_restart_continues_seq;
      Alcotest.test_case "campaigns complete, store serves results" `Quick
        test_service_completes;
      QCheck_alcotest.to_alcotest qcheck_service_kill_restart;
      Alcotest.test_case "drain mid-run, resume bit-for-bit" `Quick
        test_drain_and_resume;
      Alcotest.test_case "crash isolation + retry exhaustion" `Quick
        test_isolation_and_retry_exhaustion;
      Alcotest.test_case "corrupt queue quarantined on warm start" `Quick
        test_corrupt_queue_warm_start;
      Alcotest.test_case "v1 queue snapshot loads as a cold epoch 1" `Quick
        test_v1_queue_snapshot_loads;
      Alcotest.test_case "hand-built queue snapshots decode" `Quick
        test_queue_snapshots_load;
      Alcotest.test_case "codec count lie fails before allocating" `Quick
        test_count_lie_allocates_nothing;
      QCheck_alcotest.to_alcotest qcheck_decoders_only_malformed;
      QCheck_alcotest.to_alcotest qcheck_spec_line_mutants;
      QCheck_alcotest.to_alcotest qcheck_service_load_survives_mutation;
      Alcotest.test_case "load rebuilds a damaged campaign report" `Quick
        test_load_repairs_campaign_report;
      Alcotest.test_case "unwritable report is a note" `Quick
        test_unwritable_report_is_a_note;
      Alcotest.test_case "unchanged status files are not rewritten" `Quick
        test_write_status_skips_unchanged;
    ] )

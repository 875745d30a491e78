(* Streaming intake: the observation-spool parser, the rename-into-place
   spool convention, the warm start from the queue snapshot's estimates,
   warm-started epochs, and the JSON status document under hostile
   strings.

   The load-bearing property is the warm-start contract: epoch 2 of a
   streaming campaign, started from epoch 1's posterior means, must reach
   the same final per-AS categories as a cold run of the same epoch — the
   warm start buys convergence speed (asserted: measurably fewer sweeps
   through the R̂ gate), never different answers. *)

module Service = Because_service.Service
module Sspec = Because_service.Spec
module Store = Because_service.Store
module Stream = Because_service.Stream
module Spool = Because_service.Spool
module Io = Because_recover.Io
module Supervise = Because_recover.Supervise
module Rng = Because_stats.Rng
module Asn = Because_bgp.Asn

let fresh_dir () =
  let f = Filename.temp_file "because-stream" ".dir" in
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

let with_drain_reset f =
  Fun.protect ~finally:(fun () -> Supervise.clear_drain ()) f

let submit_ok svc spec =
  match Service.submit svc spec with
  | Ok seq -> seq
  | Error r ->
      Alcotest.failf "submit %s: %s" spec.Sspec.id
        (Service.reason_to_string r)

(* ------------------------------------------------------------------ *)
(* Observation-spool parsing                                            *)

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

(* Mutated spools (bit flips, truncation, overwritten words, as in the
   service snapshot tests): a typed result, never an exception.  Each case
   writes and parses a file, so tier-1 runs 50; QCHECK_LONG=1 runs 20
   times as many. *)
let qcheck_observation_mutants =
  let path = Filename.temp_file "because" ".obs" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  write_lines path
    [ "# comment"; "rfd 64512 901 4294967295"; "  clean  64512   64513  ";
      "clean 64513\r" ];
  let good = read_file path in
  QCheck.Test.make ~name:"mutated observation spools: Ok or Error, never raise"
    ~count:50 ~long_factor:20 Test_service.mutation_gen (fun m ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Test_service.mutate good m));
      match Stream.parse_observations path with Ok _ | Error _ -> true)

let test_parse_observations () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "obs" in
  write_lines path
    [ "# comment"; ""; "rfd 64512 901"; "  clean  64512   64513  ";
      "clean 64513" ];
  (match Stream.parse_observations path with
  | Ok [ (p1, true); (p2, false); (p3, false) ] ->
      Alcotest.(check (list int)) "path 1" [ 64512; 901 ]
        (List.map Asn.to_int p1);
      Alcotest.(check (list int)) "path 2 (whitespace)" [ 64512; 64513 ]
        (List.map Asn.to_int p2);
      Alcotest.(check (list int)) "path 3" [ 64513 ] (List.map Asn.to_int p3)
  | Ok l -> Alcotest.failf "parsed %d observations" (List.length l)
  | Error e -> Alcotest.fail e);
  write_lines path [ "rfd 64512"; "flap 901" ];
  (match Stream.parse_observations path with
  | Error e -> Alcotest.(check bool) "names the line" true (contains ~sub:"line 2" e)
  | Ok _ -> Alcotest.fail "bad label accepted");
  write_lines path [ "rfd" ];
  (match Stream.parse_observations path with
  | Error e -> Alcotest.(check bool) "empty path named" true (contains ~sub:"empty" e)
  | Ok _ -> Alcotest.fail "empty path accepted");
  write_lines path [ "rfd 64512 -3" ];
  (match Stream.parse_observations path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative ASN accepted");
  write_lines path [ "rfd 1 4294967296" ];
  (match Stream.parse_observations path with
  | Error e ->
      Alcotest.(check string) "ASN >= 2^32 is a typed error"
        "line 1: malformed ASN" e
  | Ok _ -> Alcotest.fail "ASN >= 2^32 accepted");
  write_lines path [ "rfd 64512 4294967295\r" ];
  (match Stream.parse_observations path with
  | Ok [ (p1, true) ] ->
      Alcotest.(check (list int)) "CRLF line" [ 64512; 4294967295 ]
        (List.map Asn.to_int p1)
  | Ok l -> Alcotest.failf "CRLF: parsed %d observations" (List.length l)
  | Error e -> Alcotest.fail e);
  write_lines path [ "1 64512 901" ];
  (match Stream.parse_observations path with
  | Error e ->
      Alcotest.(check bool) "label 1 rejected" true (contains ~sub:"line 1" e)
  | Ok _ -> Alcotest.fail "label 1 accepted");
  match Stream.parse_observations (Filename.concat dir "missing") with
  | Error e ->
      Alcotest.(check string) "I/O reason without the path"
        "No such file or directory" e
  | Ok _ -> Alcotest.fail "missing file accepted"

(* ------------------------------------------------------------------ *)
(* Spool convention: rename-into-place, dotfiles invisible               *)

let test_spool_rename_into_place () =
  Alcotest.(check bool) "plain eligible" true (Spool.eligible "a.campaign");
  Alcotest.(check bool) "dotfile invisible" false
    (Spool.eligible ".a.campaign");
  Alcotest.(check bool) "done invisible" false
    (Spool.eligible "a.campaign.done");
  Alcotest.(check bool) "other suffix invisible" false (Spool.eligible "a.txt");
  let dir = fresh_dir () in
  Alcotest.(check (list string)) "missing dir scans empty" []
    (Spool.scan (Filename.concat dir "nope"));
  (* A slow producer writes the spec one byte at a time under a dotfile
     staging name: no scan along the way may surface it. *)
  let spec_line = Sspec.to_line (Sspec.default ~id:"slow") ^ "\n" in
  let staged = Filename.concat dir ".slow.campaign" in
  let oc = Out_channel.open_gen [ Open_wronly; Open_creat ] 0o644 staged in
  String.iter
    (fun c ->
      Out_channel.output_char oc c;
      Out_channel.flush oc;
      Alcotest.(check (list string)) "partial write invisible" []
        (Spool.scan dir))
    spec_line;
  Out_channel.close oc;
  (* rename(2) into place: the very next scan sees the complete file. *)
  Sys.rename staged (Filename.concat dir "slow.campaign");
  Alcotest.(check (list string)) "renamed file visible" [ "slow.campaign" ]
    (Spool.scan dir);
  Alcotest.(check string) "and complete" spec_line
    (read_file (Filename.concat dir "slow.campaign"));
  (* Scan order is deterministic (sorted), dotfiles stay hidden. *)
  write_lines (Filename.concat dir "b.campaign") [ "x" ];
  write_lines (Filename.concat dir ".c.campaign") [ "x" ];
  Alcotest.(check (list string)) "sorted, filtered"
    [ "b.campaign"; "slow.campaign" ] (Spool.scan dir)

(* The scanner is inode-hardened: names alone don't qualify a file.
   Zero-byte placeholders (a touch(1) or an interrupted copy) and
   symlinks (which can alias out of the spool or dangle) are filtered
   by [lstat], not surfaced to the service. *)
let test_spool_inode_hardening () =
  let dir = fresh_dir () in
  write_lines (Filename.concat dir "real.campaign") [ "x" ];
  (* Zero-byte file: eligible by name, filtered by size. *)
  Out_channel.with_open_bin (Filename.concat dir "empty.campaign")
    (fun _ -> ());
  (* Symlink, even to a perfectly good spec: filtered by inode type. *)
  Unix.symlink
    (Filename.concat dir "real.campaign")
    (Filename.concat dir "alias.campaign");
  (* Dangling symlink: must not crash the scan either. *)
  Unix.symlink
    (Filename.concat dir "never-existed")
    (Filename.concat dir "dangling.campaign");
  Alcotest.(check (list string)) "only the real regular file"
    [ "real.campaign" ] (Spool.scan dir)

(* The same name renamed into place twice (new content each time) is a
   legitimate producer pattern — re-submitting a streaming campaign's
   next epoch under its stable file name.  The scanner must surface it
   both times; exactly-once ingestion is the consumer's rename-to-.done,
   which overwrites the previous marker. *)
let test_spool_renamed_twice () =
  let dir = fresh_dir () in
  let name = "epochal.campaign" in
  let live = Filename.concat dir name in
  let ingest () =
    match Spool.scan dir with
    | [ n ] when n = name ->
        let content = read_file live in
        Sys.rename live (live ^ ".done");
        content
    | l -> Alcotest.failf "scan saw %d entries" (List.length l)
  in
  write_lines (Filename.concat dir (".stage-" ^ name)) [ "epoch-one" ];
  Sys.rename (Filename.concat dir (".stage-" ^ name)) live;
  Alcotest.(check string) "first rename picked up" "epoch-one\n" (ingest ());
  Alcotest.(check (list string)) "quiescent between epochs" []
    (Spool.scan dir);
  (* Second rename into the same live name, fresh content. *)
  write_lines (Filename.concat dir (".stage-" ^ name)) [ "epoch-two" ];
  Sys.rename (Filename.concat dir (".stage-" ^ name)) live;
  Alcotest.(check string) "second rename picked up too" "epoch-two\n"
    (ingest ());
  Alcotest.(check string) "done marker holds the newest epoch" "epoch-two\n"
    (read_file (live ^ ".done"))

(* ------------------------------------------------------------------ *)
(* Warm start                                                            *)

(* A warm epoch starts each chain at the AS's posterior mean as the
   previous epoch stored it — bit for bit the mean {!Posterior.combined}
   reports, matched by ASN whatever the node order — and at 0.5 for an AS
   the previous epoch never saw. *)
let test_seed_means_match_posterior () =
  let data =
    Because.Tomography.of_observations
      (List.map
         (fun (path, rfd) -> (List.map Asn.of_int path, rfd))
         [ ([ 64512; 901 ], true); ([ 64513; 901 ], true);
           ([ 64512; 64513 ], false); ([ 64513; 64514 ], false);
           ([ 64512; 64514 ], false); ([ 7; 64514; 901 ], true) ])
  in
  let config =
    { Because.Infer.default_config with
      Because.Infer.n_samples = 120; burn_in = 40; n_chains = 2 }
  in
  let result = Because.Infer.run ~rng:(Rng.create 5) ~config data in
  let combined = List.rev (Array.to_list (Because.Posterior.combined result)) in
  let clamp m = Float.max 1e-4 (Float.min (1.0 -. 1e-4) m) in
  let expected =
    List.map
      (fun (m : Because.Posterior.marginal) ->
        Int64.bits_of_float (clamp m.Because.Posterior.mean))
      combined
    @ [ Int64.bits_of_float 0.5 ]
  in
  let nodes =
    List.map (fun (m : Because.Posterior.marginal) -> m.Because.Posterior.asn)
      combined
    @ [ Asn.of_int 65000 ]
  in
  let estimates = Store.estimates_of_result result ~categories:[] in
  Alcotest.(check (list int64)) "chain starts, bit for bit" expected
    (Array.to_list
       (Array.map Int64.bits_of_float
          (Stream.warm_init estimates (Array.of_list nodes))))

(* ------------------------------------------------------------------ *)
(* Two-epoch warm start: same categories as a cold epoch-2 run, fewer
   sweeps through the convergence gate                                  *)

(* Strongly separated synthetic world: AS 901 damps every path it is on,
   everything else is clean — the posterior should pin 901 near 1 and the
   rest near 0, warm or cold. *)
let obs_epoch1 =
  List.concat_map
    (fun _ ->
      [ "rfd 64512 901"; "rfd 64513 901"; "clean 64512 64513";
        "clean 64513 64514"; "clean 64512 64514" ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* The growth keeps AS 64514 off damped paths: its posterior must stay
   firmly clean in both runs, or the C1/C2 boundary turns the
   category-equality check into a coin flip. *)
let obs_epoch2_growth =
  List.concat_map
    (fun _ -> [ "rfd 64512 901"; "clean 64513 64514"; "clean 64512 64514" ])
    [ 1; 2; 3; 4; 5 ]

let stream_spec ~obs id =
  { (Sspec.default ~id) with
    Sspec.seed = 11;
    samples = 300;
    burn_in = 150;
    chains = 2;
    obs = Some obs }

(* Replicate Stream.run's cold pipeline for epoch 2 out of public parts:
   same observations, same epoch-derived RNG, full burn-in, default
   (cold) chain initialisation. *)
let cold_epoch ~epoch (spec : Sspec.t) =
  let path = Option.get spec.Sspec.obs in
  let obs =
    match Stream.parse_observations path with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let data = Because.Tomography.of_observations obs in
  let config =
    { Because.Infer.default_config with
      Because.Infer.n_samples = spec.Sspec.samples;
      burn_in = spec.Sspec.burn_in;
      n_chains = spec.Sspec.chains }
  in
  let rng = Rng.create ((spec.Sspec.seed * 1009) + epoch) in
  let result = Because.Infer.run ~rng ~config data in
  let min_support = spec.Sspec.min_path_support in
  let step1 = Because.Categorize.assign ~min_support result in
  let insufficient = Because.Categorize.insufficient result ~min_support in
  let promos =
    List.filter
      (fun (p : Because.Pinpoint.promotion) ->
        not (List.exists (Asn.equal p.Because.Pinpoint.asn) insufficient))
      (Because.Pinpoint.promotions result ~categories:step1)
  in
  let categories = Because.Pinpoint.apply step1 promos in
  let gate =
    Option.map (fun d -> spec.Sspec.burn_in + d)
      (Because.Infer.gate_draws result)
  in
  (categories, gate)

let test_two_epoch_warm_start () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let obs_path = Filename.concat dir "paths.obs" in
  write_lines obs_path obs_epoch1;
  let spec = stream_spec ~obs:obs_path "stream1" in
  let svc = Service.create (Service.default_config ~state_dir:dir) in
  let seq1 = submit_ok svc spec in
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "epoch 1 did not complete");
  let entry id =
    match Store.find (Service.store svc) ~id with
    | Some e -> e
    | None -> Alcotest.failf "%s missing" id
  in
  let e1 = entry "stream1" in
  Alcotest.(check int) "epoch 1" 1 e1.Store.epoch;
  Alcotest.(check bool) "epoch 1 cold" false e1.Store.warm;
  Alcotest.(check int) "epoch 1 obs" (List.length obs_epoch1)
    e1.Store.obs_count;
  Alcotest.(check bool) "epoch 1 gated" true (e1.Store.gate_sweeps <> None);
  (* The spool grows; the same line is re-admitted as epoch 2 at the
     original sequence number, not rejected as a duplicate. *)
  Out_channel.with_open_gen [ Open_append ] 0o644 obs_path (fun oc ->
      List.iter
        (fun l -> Out_channel.output_string oc (l ^ "\n"))
        obs_epoch2_growth);
  let seq2 = submit_ok svc spec in
  Alcotest.(check int) "re-admitted at its seq" seq1 seq2;
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "epoch 2 did not complete");
  let e2 = entry "stream1" in
  Alcotest.(check int) "epoch 2" 2 e2.Store.epoch;
  Alcotest.(check bool) "epoch 2 warm" true e2.Store.warm;
  Alcotest.(check int) "epoch 2 obs"
    (List.length obs_epoch1 + List.length obs_epoch2_growth)
    e2.Store.obs_count;
  Alcotest.(check string) "healthy" "healthy"
    (Store.health_label e2.Store.health);
  let report = read_file (Service.report_path svc ~id:"stream1") in
  Alcotest.(check bool) "report says epoch 2" true
    (contains ~sub:"epoch: 2 warm" report);
  (* Same answers as a cold run of the same epoch over the same file... *)
  let cold_categories, cold_gate = cold_epoch ~epoch:2 spec in
  Array.iter
    (fun (est : Store.estimate) ->
      match
        List.find_opt (fun (a, _) -> Asn.equal a est.Store.asn) cold_categories
      with
      | Some (_, cold_cat) ->
          Alcotest.(check int)
            (Printf.sprintf "category of AS %s" (Asn.to_string est.Store.asn))
            (Because.Categorize.to_int cold_cat)
            est.Store.category
      | None -> Alcotest.failf "cold run missing %s" (Asn.to_string est.Store.asn))
    e2.Store.estimates;
  Alcotest.(check bool) "901 flagged" true
    (Array.exists
       (fun (e : Store.estimate) ->
         Asn.to_int e.Store.asn = 901 && e.Store.damping)
       e2.Store.estimates);
  (* ...for measurably fewer sweeps through the R̂ gate. *)
  (match (e2.Store.gate_sweeps, cold_gate) with
  | Some warm, Some cold ->
      Alcotest.(check bool)
        (Printf.sprintf "warm gate %d < cold gate %d" warm cold)
        true (warm < cold)
  | _ -> Alcotest.fail "a convergence gate did not pass");
  (* The stream fields survive a warm service start from the durable
     queue. *)
  let reloaded = Service.load (Service.default_config ~state_dir:dir) in
  (match Store.find (Service.store reloaded) ~id:"stream1" with
  | Some e ->
      Alcotest.(check int) "reloaded epoch" 2 e.Store.epoch;
      Alcotest.(check bool) "reloaded warm" true e.Store.warm;
      Alcotest.(check (option int)) "reloaded gate" e2.Store.gate_sweeps
        e.Store.gate_sweeps;
      Alcotest.(check int) "reloaded obs" e2.Store.obs_count e.Store.obs_count
  | None -> Alcotest.fail "stream entry lost across warm start")

(* ------------------------------------------------------------------ *)
(* The queue snapshot is the one durable record of a streaming epoch     *)

let run_completed svc what =
  match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.failf "%s did not complete" what

let append_lines path lines =
  Out_channel.with_open_gen [ Open_append ] 0o644 path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

(* Everything an epoch leaves behind: every estimate's fields (floats as
   bits), the gate and the report. *)
let epoch_result svc id =
  match Store.find (Service.store svc) ~id with
  | None -> Alcotest.failf "%s missing" id
  | Some e ->
      ( Array.to_list
          (Array.map
             (fun (est : Store.estimate) ->
               Printf.sprintf "%d %Lx %Lx %Lx %d %b"
                 (Asn.to_int est.Store.asn)
                 (Int64.bits_of_float est.Store.mean)
                 (Int64.bits_of_float est.Store.lo)
                 (Int64.bits_of_float est.Store.hi)
                 est.Store.category est.Store.damping)
             e.Store.estimates),
        e.Store.gate_sweeps,
        read_file (Service.report_path svc ~id) )

let check_epoch_result what (est, gate, report) (est', gate', report') =
  Alcotest.(check (list string)) (what ^ ": estimates") est est';
  Alcotest.(check (option int)) (what ^ ": gate sweeps") gate gate';
  Alcotest.(check string) (what ^ ": report") report report'

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let p = Filename.concat src f in
      if (Unix.stat p).Unix.st_kind = Unix.S_REG then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc (read_file p)))
    (Sys.readdir src)

let restore_dir ~saved dst =
  Io.rm_rf dst;
  copy_dir saved dst

(* A service over [dir] that ran epoch 1 of [spec] over [obs_epoch1]; the
   spool has then grown by [obs_epoch2_growth]. *)
let after_epoch1 ~dir spec =
  write_lines (Option.get spec.Sspec.obs) obs_epoch1;
  let svc = Service.create (Service.default_config ~state_dir:dir) in
  ignore (submit_ok svc spec);
  run_completed svc "epoch 1";
  append_lines (Option.get spec.Sspec.obs) obs_epoch2_growth;
  svc

(* A kill after epoch 2 wrote its report but before it persisted the
   queue leaves the snapshot the re-submission wrote: epoch 2 pending,
   epoch 1's estimates still on the entry.  The resumed epoch must
   warm-start from those and equal the uninterrupted epoch 2 bit for
   bit. *)
let test_requeued_epoch_resumes () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let spec = stream_spec ~obs:(Filename.concat dir "paths.obs") "stream1" in
  let svc = after_epoch1 ~dir spec in
  let queue = Filename.concat dir "queue.d" in
  let saved = Filename.concat dir "queue.saved" in
  let writes = ref [] in
  Io.with_faults
    (fun op ->
      (match op with
      | Io.Write f -> writes := Filename.basename f :: !writes
      | Io.Rename _ -> ());
      None)
    (fun () ->
      ignore (submit_ok svc spec);
      copy_dir queue saved;
      run_completed svc "epoch 2");
  (* The epoch's three durable writes, then the status file of the
     service's join. *)
  Alcotest.(check (list string)) "durable writes"
    [ "queue.ck"; "stream1.report"; "queue.prev.ck"; "status.json" ]
    (List.rev !writes);
  Alcotest.(check bool) "no per-campaign state directory" false
    (Sys.file_exists
       (Filename.concat (Filename.concat dir "campaigns") "stream1"));
  let uninterrupted = epoch_result svc "stream1" in
  restore_dir ~saved queue;
  let resumed = Service.load (Service.default_config ~state_dir:dir) in
  (match Store.find (Service.store resumed) ~id:"stream1" with
  | Some e ->
      Alcotest.(check int) "still epoch 2" 2 e.Store.epoch;
      Alcotest.(check string) "requeued" "interrupted"
        (Store.health_label e.Store.health);
      Alcotest.(check bool) "epoch 1's estimates restored" true
        (Array.length e.Store.estimates > 0)
  | None -> Alcotest.fail "stream entry lost");
  run_completed resumed "resumed epoch 2";
  (match Store.find (Service.store resumed) ~id:"stream1" with
  | Some e ->
      Alcotest.(check int) "epoch 2, not 3" 2 e.Store.epoch;
      Alcotest.(check bool) "warm" true e.Store.warm
  | None -> Alcotest.fail "stream entry lost");
  check_epoch_result "resumed" uninterrupted (epoch_result resumed "stream1")

let corrupt_file path =
  let data = Bytes.of_string (read_file path) in
  let mid = Bytes.length data / 2 in
  Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data)

(* The queue store keeps one fallback snapshot.  With a requeued epoch 2
   in both (a later submission wrote the newer one), a corrupt newest
   snapshot is quarantined and the fallback still resumes epoch 2 warm
   and bit-identical. *)
let test_corrupt_queue_resumes_requeued_epoch () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let spec = stream_spec ~obs:(Filename.concat dir "paths.obs") "stream1" in
  let other = stream_spec ~obs:(Filename.concat dir "other.obs") "other" in
  write_lines (Option.get other.Sspec.obs) obs_epoch1;
  let svc = after_epoch1 ~dir spec in
  ignore (submit_ok svc spec);
  ignore (submit_ok svc other);
  let queue = Filename.concat dir "queue.d" in
  let saved = Filename.concat dir "queue.saved" in
  copy_dir queue saved;
  run_completed svc "epoch 2";
  let uninterrupted = epoch_result svc "stream1" in
  restore_dir ~saved queue;
  corrupt_file (Filename.concat queue "queue.prev.ck");
  let resumed = Service.load (Service.default_config ~state_dir:dir) in
  Alcotest.(check bool) "quarantine warned" true
    (Service.warnings resumed <> []);
  Alcotest.(check bool) "the fallback predates the later submission" true
    (Store.find (Service.store resumed) ~id:"other" = None);
  run_completed resumed "resumed epoch 2";
  (match Store.find (Service.store resumed) ~id:"stream1" with
  | Some e ->
      Alcotest.(check int) "epoch 2" 2 e.Store.epoch;
      Alcotest.(check bool) "warm" true e.Store.warm
  | None -> Alcotest.fail "stream entry lost");
  check_epoch_result "from the fallback" uninterrupted
    (epoch_result resumed "stream1")

(* A streaming epoch's report is rewritten in place: a warm start
   rebuilds a damaged one byte for byte from the queue snapshot. *)
let test_load_repairs_stream_report () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let spec = stream_spec ~obs:(Filename.concat dir "paths.obs") "stream1" in
  let svc = after_epoch1 ~dir spec in
  ignore (submit_ok svc spec);
  run_completed svc "epoch 2";
  let report_path = Service.report_path svc ~id:"stream1" in
  Test_service.check_load_repairs
    ~load:(fun () -> Service.load (Service.default_config ~state_dir:dir))
    ~report_path (read_file report_path)

(* An epoch whose predecessor left no estimates (here: the spool did not
   exist yet) runs cold, under its own epoch number. *)
let test_epoch_after_empty_runs_cold () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  let obs = Filename.concat dir "late.obs" in
  let spec = stream_spec ~obs "late" in
  let svc = Service.create (Service.default_config ~state_dir:dir) in
  ignore (submit_ok svc spec);
  run_completed svc "epoch 1";
  write_lines obs obs_epoch1;
  ignore (submit_ok svc spec);
  run_completed svc "epoch 2";
  match Store.find (Service.store svc) ~id:"late" with
  | None -> Alcotest.fail "entry missing"
  | Some e -> (
      Alcotest.(check int) "epoch 2" 2 e.Store.epoch;
      Alcotest.(check bool) "cold" false e.Store.warm;
      let supervise = { Supervise.deadline_s = None; max_sweeps = None } in
      match
        Stream.run ~spec ~epoch:2 ~prior:[||]
          ~telemetry:Because_telemetry.Registry.disabled ~supervise ~jobs:1 ()
      with
      | Error msg -> Alcotest.fail msg
      | Ok o ->
          Alcotest.(check (list int64)) "a cold epoch-2 run, bit for bit"
            (Array.to_list
               (Array.map
                  (fun (est : Store.estimate) ->
                    Int64.bits_of_float est.Store.mean)
                  o.Stream.estimates))
            (Array.to_list
               (Array.map
                  (fun (est : Store.estimate) ->
                    Int64.bits_of_float est.Store.mean)
                  e.Store.estimates)))

let test_stream_missing_spool_is_insufficient () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  (* A spool path that is a directory opens fine but fails on the first
     read: still a property of the epoch, not a transient fault. *)
  let spool_dir = Filename.concat dir "spool.d" in
  Sys.mkdir spool_dir 0o755;
  let inputs =
    [ ("ghost", Filename.concat dir "never-written.obs"); ("folder", spool_dir) ]
  in
  let svc = Service.create (Service.default_config ~state_dir:dir) in
  List.iter (fun (id, obs) -> ignore (submit_ok svc (stream_spec ~obs id))) inputs;
  (match Service.run_until_idle svc with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "service did not complete");
  List.iter
    (fun (id, _) ->
      match Store.find (Service.store svc) ~id with
      | Some e ->
          Alcotest.(check string) (id ^ ": insufficient, not retried to death")
            "insufficient"
            (Store.health_label e.Store.health);
          Alcotest.(check int) (id ^ ": single attempt") 1 e.Store.attempts
      | None -> Alcotest.fail (id ^ " missing"))
    inputs

(* A traced epoch: the localization stage names its inference span
   [stream.infer], and each sampler's chain span lies inside it. *)
let test_traced_epoch_spans () =
  let dir = fresh_dir () in
  let obs = Filename.concat dir "paths.obs" in
  write_lines obs obs_epoch1;
  let spec = { (stream_spec ~obs "traced") with Sspec.chains = 1 } in
  let reg = Because_telemetry.Registry.create () in
  (match
     Stream.run ~spec ~epoch:1 ~prior:[||] ~telemetry:reg
       ~supervise:{ Supervise.deadline_s = None; max_sweeps = None }
       ~jobs:1 ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let module Snapshot = Because_telemetry.Snapshot in
  let spans = (Because_telemetry.Registry.snapshot reg).Snapshot.spans in
  let named n =
    List.filter (fun (sp : Snapshot.span) -> sp.Snapshot.name = n) spans
  in
  match named "stream.infer" with
  | [ outer ] ->
      let stop (sp : Snapshot.span) = Int64.add sp.start_ns sp.dur_ns in
      List.iter
        (fun n ->
          match named n with
          | [ inner ] ->
              Alcotest.(check bool) (n ^ " inside stream.infer") true
                (inner.start_ns >= outer.start_ns
                && stop inner <= stop outer)
          | l -> Alcotest.failf "%d %s spans" (List.length l) n)
        [ "infer.MH.chain0"; "infer.HMC.chain0" ]
  | l -> Alcotest.failf "%d stream.infer spans" (List.length l)

(* ------------------------------------------------------------------ *)
(* Classic campaigns stay byte-identical: no stream fields anywhere      *)

let test_classic_output_unchanged () =
  let spec = Sspec.default ~id:"classic" in
  Alcotest.(check bool) "spec line has no obs key" false
    (contains ~sub:"obs=" (Sspec.to_line spec));
  (match Sspec.of_line (Sspec.to_line spec) with
  | Ok back -> Alcotest.(check bool) "roundtrip" true (Sspec.equal spec back)
  | Error e -> Alcotest.fail e);
  (* A streaming spec round-trips its obs path... *)
  let sspec = { spec with Sspec.id = "s"; obs = Some "/tmp/x.obs" } in
  (match Sspec.of_line (Sspec.to_line sspec) with
  | Ok back ->
      Alcotest.(check (option string)) "obs roundtrip" (Some "/tmp/x.obs")
        back.Sspec.obs
  | Error e -> Alcotest.fail e);
  (* ...but an obs path with whitespace cannot be smuggled into the line
     format. *)
  (match Sspec.validate { sspec with Sspec.obs = Some "/tmp/a b" } with
  | Ok _ -> Alcotest.fail "spacey obs path accepted"
  | Error _ -> ());
  let store = Store.create () in
  let e = Store.add store spec ~seq:0 in
  e.Store.health <- Store.Done Supervise.Healthy;
  let report = Store.report e in
  Alcotest.(check bool) "report has no epoch line" false
    (contains ~sub:"epoch:" report);
  Alcotest.(check bool) "report has no observations line" false
    (contains ~sub:"observations:" report);
  let json = Store.to_json store ~draining:false ~limit:16 in
  Alcotest.(check bool) "status json has no epoch key" false
    (contains ~sub:"\"epoch\"" json);
  Alcotest.(check bool) "status json has no warm key" false
    (contains ~sub:"\"warm\"" json)

(* ------------------------------------------------------------------ *)
(* Status JSON stays valid JSON under hostile strings                    *)

(* A deliberately independent miniature JSON reader: accepts exactly the
   RFC 8259 grammar (objects, arrays, strings with escapes, numbers,
   literals) and nothing else. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else fail () in
  let literal lit =
    String.iter (fun c -> expect c) lit
  in
  let string_body () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance (); go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail ()
              done;
              go ()
          | _ -> fail ())
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ -> advance (); go ()
    in
    go ()
  in
  let number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let rec go saw =
        match peek () with
        | Some '0' .. '9' -> advance (); go true
        | _ -> if not saw then fail ()
      in
      go false
    in
    digits ();
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ())
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let rec members () =
            skip_ws (); string_body (); skip_ws (); expect ':'; value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ()
            | Some '}' -> advance ()
            | _ -> fail ()
          in
          members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let rec elements () =
            value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements ()
            | Some ']' -> advance ()
            | _ -> fail ()
          in
          elements ()
    | Some '"' -> string_body ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ());
    skip_ws ()
  in
  match value (); !pos = n with
  | complete -> complete
  | exception Exit -> false

let test_json_validator_sanity () =
  List.iter
    (fun (want, s) ->
      Alcotest.(check bool) (Printf.sprintf "%S" s) want (json_valid s))
    [ (true, "{}"); (true, "{ \"a\": [1, -2.5e3, \"x\\n\", null] }");
      (true, "[true, false]");
      (false, "{"); (false, "{\"a\" 1}"); (false, "\"\x01\"");
      (false, "{\"a\": 1,}"); (false, "nope"); (false, "\"\\q\"") ]

let hostile_string =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 30)
    (QCheck.Gen.frequency
       [ (3, QCheck.Gen.printable);
         (1, QCheck.Gen.oneofl [ '"'; '\\'; '\n'; '\x00'; '\x1f'; '\x7f' ]) ])

let qcheck_to_json_valid =
  QCheck.Test.make
    ~name:"status JSON stays valid under hostile ids and reasons" ~count:100
    QCheck.(pair hostile_string (list_of_size (Gen.int_range 0 3) hostile_string))
    (fun (id, reasons) ->
      let store = Store.create () in
      (* The store does not re-validate ids (admission does) — the JSON
         layer alone must keep the document well-formed. *)
      let e = Store.add store { (Sspec.default ~id) with Sspec.id = id } ~seq:0 in
      e.Store.health <- Store.Done (Supervise.Insufficient reasons);
      let ok = Store.add store (Sspec.default ~id:(id ^ "~2")) ~seq:1 in
      ok.Store.health <- Store.Done (Supervise.Degraded reasons);
      json_valid (Store.to_json store ~draining:true ~limit:4))

let qcheck_json_escape_roundtrip =
  QCheck.Test.make ~name:"json_escape output is always a JSON string body"
    ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 60) Gen.char)
    (fun s ->
      json_valid ("\"" ^ Because_telemetry.Manifest.json_escape s ^ "\""))

let suite =
  ( "stream",
    [
      Alcotest.test_case "observation spool parsing" `Quick
        test_parse_observations;
      QCheck_alcotest.to_alcotest qcheck_observation_mutants;
      Alcotest.test_case "spool rename-into-place convention" `Quick
        test_spool_rename_into_place;
      Alcotest.test_case "spool filters zero-byte files and symlinks" `Quick
        test_spool_inode_hardening;
      Alcotest.test_case "spool surfaces the same name renamed twice" `Quick
        test_spool_renamed_twice;
      Alcotest.test_case "seed means equal the combined posterior means"
        `Quick test_seed_means_match_posterior;
      Alcotest.test_case "two epochs: warm equals cold, converges sooner"
        `Quick test_two_epoch_warm_start;
      Alcotest.test_case "requeued epoch resumes from the queue snapshot"
        `Quick test_requeued_epoch_resumes;
      Alcotest.test_case "corrupt queue snapshot: fallback resumes warm"
        `Quick test_corrupt_queue_resumes_requeued_epoch;
      Alcotest.test_case "epoch after an empty one runs cold" `Quick
        test_epoch_after_empty_runs_cold;
      Alcotest.test_case "missing spool file is insufficient, no retry loop"
        `Quick test_stream_missing_spool_is_insufficient;
      Alcotest.test_case "traced epoch nests chain spans in stream.infer"
        `Quick test_traced_epoch_spans;
      Alcotest.test_case "classic campaigns carry no stream fields" `Quick
        test_classic_output_unchanged;
      Alcotest.test_case "json validator sanity" `Quick
        test_json_validator_sanity;
      QCheck_alcotest.to_alcotest qcheck_to_json_valid;
      QCheck_alcotest.to_alcotest qcheck_json_escape_roundtrip;
      Alcotest.test_case "load rebuilds a damaged epoch report" `Quick
        test_load_repairs_stream_report;
    ] )

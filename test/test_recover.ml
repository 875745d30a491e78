(* Durable checkpoint/resume and chain supervision.

   The heart of this suite is the crash property: a campaign killed at an
   arbitrary checkpoint save and then resumed must produce the bit-for-bit
   outcome of the uninterrupted run — chains compared draw-by-draw at the
   IEEE bit level, everything else by Marshal image — for sequential and
   parallel configurations alike. *)

module Codec = Because_recover.Codec
module Checkpoint = Because_recover.Checkpoint
module Supervise = Because_recover.Supervise
module Sampler_state = Because_recover.Sampler_state
module Chain_ckpt = Because_recover.Chain_ckpt
module Chain = Because_mcmc.Chain
module Target = Because_mcmc.Target
module Metropolis = Because_mcmc.Metropolis
module Hmc = Because_mcmc.Hmc
module Sc = Because_scenario
module Plan = Because_faults.Plan
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist

(* ------------------------------------------------------------------ *)
(* Codec primitives                                                     *)

let test_codec_roundtrip () =
  let w = Codec.writer () in
  Codec.u8 w 0;
  Codec.u8 w 255;
  Codec.int w min_int;
  Codec.int w max_int;
  Codec.i64 w Int64.min_int;
  Codec.float w Float.nan;
  Codec.float w Float.neg_infinity;
  Codec.float w (-0.0);
  Codec.bool w true;
  Codec.string w "";
  Codec.string w "hello \x00 world";
  Codec.option w Codec.int None;
  Codec.option w Codec.int (Some 17);
  Codec.list w Codec.float [ 1.5; -2.25 ];
  Codec.float_array w [| 0.1; Float.infinity |];
  Codec.int_array w [| -1; 0; 1 |];
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int) "u8 lo" 0 (Codec.read_u8 r);
  Alcotest.(check int) "u8 hi" 255 (Codec.read_u8 r);
  Alcotest.(check int) "min_int" min_int (Codec.read_int r);
  Alcotest.(check int) "max_int" max_int (Codec.read_int r);
  Alcotest.(check int64) "i64" Int64.min_int (Codec.read_i64 r);
  Alcotest.(check bool) "nan bits survive" true
    (Int64.equal
       (Int64.bits_of_float Float.nan)
       (Int64.bits_of_float (Codec.read_float r)));
  Alcotest.(check (float 0.0)) "-inf" Float.neg_infinity (Codec.read_float r);
  Alcotest.(check bool) "-0. bits survive" true
    (Int64.equal (Int64.bits_of_float (-0.0))
       (Int64.bits_of_float (Codec.read_float r)));
  Alcotest.(check bool) "bool" true (Codec.read_bool r);
  Alcotest.(check string) "empty string" "" (Codec.read_string r);
  Alcotest.(check string) "binary string" "hello \x00 world"
    (Codec.read_string r);
  Alcotest.(check (option int)) "none" None (Codec.read_option r Codec.read_int);
  Alcotest.(check (option int)) "some" (Some 17)
    (Codec.read_option r Codec.read_int);
  Alcotest.(check (list (float 0.0))) "list" [ 1.5; -2.25 ]
    (Codec.read_list r Codec.read_float);
  Alcotest.(check (array (float 0.0))) "float array" [| 0.1; Float.infinity |]
    (Codec.read_float_array r);
  Alcotest.(check (array int)) "int array" [| -1; 0; 1 |]
    (Codec.read_int_array r);
  Codec.expect_end r

let test_codec_truncation () =
  let w = Codec.writer () in
  Codec.i64 w 42L;
  let body = Codec.contents w in
  let truncated = String.sub body 0 (String.length body - 1) in
  (match Codec.read_i64 (Codec.reader truncated) with
  | _ -> Alcotest.fail "read past end"
  | exception Codec.Malformed _ -> ());
  let r = Codec.reader body in
  ignore (Codec.read_i64 r);
  Codec.expect_end r;
  let r2 = Codec.reader body in
  match Codec.expect_end r2 with
  | () -> Alcotest.fail "expect_end accepted trailing bytes"
  | exception Codec.Malformed _ -> ()

let qcheck_codec_floats =
  QCheck.Test.make ~name:"Codec float round-trips every bit pattern"
    ~count:500 QCheck.float (fun f ->
      let w = Codec.writer () in
      Codec.float w f;
      let back = Codec.read_float (Codec.reader (Codec.contents w)) in
      Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float back))

(* ------------------------------------------------------------------ *)
(* Sampler snapshot format                                              *)

(* A Beta(3,2) × Beta(2,5) target on the unit box, with a gradient so the
   same fixture drives all three samplers. *)
let unit_target =
  let a = [| 3.0; 2.0 |] and b = [| 2.0; 5.0 |] in
  Target.create ~dim:2 ~support:Target.Unit_interval
    ~grad:(fun p ->
      Array.init 2 (fun i ->
          let x = Float.max 1e-9 (Float.min (1.0 -. 1e-9) p.(i)) in
          ((a.(i) -. 1.0) /. x) -. ((b.(i) -. 1.0) /. (1.0 -. x))))
    (fun p ->
      let acc = ref 0.0 in
      for i = 0 to 1 do
        acc := !acc +. Dist.beta_log_pdf ~a:a.(i) ~b:b.(i) p.(i)
      done;
      !acc)

let check_flat_array msg a b =
  Alcotest.(check (array int64))
    msg
    (Array.map Int64.bits_of_float a)
    (Array.map Int64.bits_of_float b)

(* Capture the control-hook state at a given sweep of a fresh run. *)
let capture_at capture_sweep run =
  let captured = ref None in
  let control ~sweep ~state =
    if sweep = capture_sweep then captured := Some (state ())
  in
  let result = run ~control in
  match !captured with
  | Some s -> (s, result)
  | None -> Alcotest.failf "control hook never reached sweep %d" capture_sweep

let test_sampler_state_flat_roundtrip () =
  (* The current generation: encode always writes flat tags, and the
     round-trip is the identity on every field. *)
  let run ~control =
    Metropolis.run_single_site ~rng:(Rng.create 13) ~control ~n_samples:30
      ~burn_in:10 unit_target
  in
  let st, _ = capture_at 25 run in
  let w = Codec.writer () in
  Sampler_state.encode w (Sampler_state.Mh st);
  let body = Codec.contents w in
  Alcotest.(check int) "written with flat tag" 3
    (Char.code body.[0]);
  let r = Codec.reader body in
  (match Sampler_state.decode r with
  | Sampler_state.Mh s ->
      check_flat_array "kept" st.Metropolis.s_kept s.Metropolis.s_kept;
      Alcotest.(check string) "rng" st.Metropolis.s_rng s.Metropolis.s_rng
  | _ -> Alcotest.fail "flat tag 3 did not decode to Mh");
  Codec.expect_end r;
  (* Unknown future tags are rejected, not misparsed. *)
  let w2 = Codec.writer () in
  Codec.u8 w2 9;
  match Sampler_state.decode (Codec.reader (Codec.contents w2)) with
  | _ -> Alcotest.fail "unknown tag accepted"
  | exception Codec.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Checkpoint store                                                     *)

(* A unique, not-yet-existing directory name per call (temp_file reserves
   the name; the store creates the directory on open). *)
let fresh_dir () =
  let f = Filename.temp_file "because-recover" ".ckdir" in
  Sys.remove f;
  f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let store = Checkpoint.open_ ~dir ~fingerprint:"fp-1" () in
  Checkpoint.save store ~key:"alpha/beta" "payload-1";
  Checkpoint.save store ~key:"alpha/beta" "payload-2";
  Alcotest.(check (option string)) "latest wins" (Some "payload-2")
    (Checkpoint.load store ~key:"alpha/beta");
  Alcotest.(check (option string)) "missing key" None
    (Checkpoint.load store ~key:"gamma");
  (* Re-open with the same fingerprint: snapshots survive. *)
  let store2 = Checkpoint.open_ ~dir ~fingerprint:"fp-1" () in
  Alcotest.(check (option string)) "reopen" (Some "payload-2")
    (Checkpoint.load store2 ~key:"alpha/beta")

let corrupt_file path =
  let body = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string body in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x5a));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b)

let test_store_corruption_falls_back () =
  let dir = fresh_dir () in
  let store = Checkpoint.open_ ~dir ~fingerprint:"fp-c" () in
  Checkpoint.save store ~key:"k" "old";
  Checkpoint.save store ~key:"k" "new";
  (* Corrupt the latest snapshot on disk; load must detect it via CRC,
     quarantine it and fall back to the previous one — with a warning,
     never a crash or a silent wrong answer. *)
  corrupt_file (Filename.concat dir "k.prev.ck");
  let store2 = Checkpoint.open_ ~dir ~fingerprint:"fp-c" () in
  Alcotest.(check (option string)) "previous snapshot recovered" (Some "old")
    (Checkpoint.load store2 ~key:"k");
  Alcotest.(check bool) "fallback counted" true
    (Checkpoint.fallbacks store2 > 0);
  Alcotest.(check bool) "warning recorded" true
    (Checkpoint.warnings store2 <> []);
  Alcotest.(check bool) "corrupt file quarantined" true
    (List.exists
       (fun f -> contains ~sub:"corrupt" f)
       (Array.to_list (Sys.readdir dir)))

let test_store_fingerprint_mismatch () =
  let dir = fresh_dir () in
  let store = Checkpoint.open_ ~dir ~fingerprint:"fp-old" () in
  Checkpoint.save store ~key:"k" "stale";
  let store2 = Checkpoint.open_ ~dir ~fingerprint:"fp-new" () in
  Alcotest.(check (option string)) "stale snapshot not loadable" None
    (Checkpoint.load store2 ~key:"k");
  Alcotest.(check bool) "mismatch warned" true
    (Checkpoint.warnings store2 <> [])

let test_store_wrong_key_rejected () =
  let dir = fresh_dir () in
  let store = Checkpoint.open_ ~dir ~fingerprint:"fp-k" () in
  Checkpoint.save store ~key:"a" "va";
  (* Copy a's snapshot over b's slot: the envelope carries the key, so the
     load must reject the transplant. *)
  let a_file = Filename.concat dir "a.ck" in
  let b_file = Filename.concat dir "b.ck" in
  let body = In_channel.with_open_bin a_file In_channel.input_all in
  Out_channel.with_open_bin b_file (fun oc ->
      Out_channel.output_string oc body);
  Alcotest.(check (option string)) "transplanted snapshot rejected" None
    (Checkpoint.load store ~key:"b")

(* Each key has two slot files, rewritten in place: the same inodes, no
   temp file, and each slot ends where its envelope does — a shorter
   payload shrinks the slot, leaving no stale tail. *)
let test_store_slots_rewritten_in_place () =
  let dir = fresh_dir () in
  let store = Checkpoint.open_ ~dir ~fingerprint:"fp-slots" () in
  let stat f = Unix.stat (Filename.concat dir f) in
  Checkpoint.save store ~key:"k" (String.make 300 'a');
  Checkpoint.save store ~key:"k" (String.make 300 'b');
  let before = List.map stat [ "k.ck"; "k.prev.ck" ] in
  Checkpoint.save store ~key:"k" "c";
  Checkpoint.save store ~key:"k" "dd";
  Checkpoint.save store ~key:"k" "e";
  List.iter2
    (fun f (st : Unix.stats) ->
      Alcotest.(check int) (f ^ " keeps its inode") st.st_ino (stat f).st_ino;
      Alcotest.(check bool) (f ^ " shrinks to its envelope") true
        ((stat f).st_size < st.st_size - 290))
    [ "k.ck"; "k.prev.ck" ] before;
  (* "e" in k.ck, "dd" in k.prev.ck: envelopes one byte apart. *)
  Alcotest.(check int) "k.prev.ck one byte longer" ((stat "k.ck").st_size + 1)
    (stat "k.prev.ck").st_size;
  Alcotest.(check (list string)) "no temp file" [ "MANIFEST"; "k.ck"; "k.prev.ck" ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  Alcotest.(check (option string)) "last payload" (Some "e")
    (Checkpoint.load store ~key:"k");
  Alcotest.(check (option string)) "last payload after reopen" (Some "e")
    (Checkpoint.load (Checkpoint.open_ ~dir ~fingerprint:"fp-slots" ()) ~key:"k")

(* A version-1 envelope, as stores written before slots hold: no
   sequence number, so both slots tie and k.ck wins. *)
let seal_v1 ~key payload =
  let w = Codec.writer () in
  Codec.string w "BCKP";
  Codec.int w 1;
  Codec.string w key;
  Codec.string w payload;
  let body = Codec.contents w in
  let crc = Codec.writer () in
  Codec.i64 crc (Int64.of_int32 (Codec.crc32_string body));
  body ^ Codec.contents crc

let test_store_reads_v1_slots () =
  let dir = fresh_dir () in
  ignore (Checkpoint.open_ ~dir ~fingerprint:"fp-v1" ());
  List.iter
    (fun (f, payload) ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc (seal_v1 ~key:"k" payload)))
    [ ("k.ck", "newer"); ("k.prev.ck", "older") ];
  let store = Checkpoint.open_ ~dir ~fingerprint:"fp-v1" () in
  Alcotest.(check (option string)) "k.ck wins the tie" (Some "newer")
    (Checkpoint.load store ~key:"k");
  Checkpoint.save store ~key:"k" "next";
  Alcotest.(check (option string)) "save after a v1 load" (Some "next")
    (Checkpoint.load store ~key:"k");
  (* A torn write lands over the other slot; the load falls back. *)
  Because_recover.Io.with_faults
    (fun _ -> Some (Because_recover.Io.Short_write 0.5))
    (fun () -> Checkpoint.save store ~key:"k" "torn");
  let reopened = Checkpoint.open_ ~dir ~fingerprint:"fp-v1" () in
  Alcotest.(check (option string)) "torn slot falls back" (Some "next")
    (Checkpoint.load reopened ~key:"k");
  Alcotest.(check int) "one fallback" 1 (Checkpoint.fallbacks reopened);
  Alcotest.(check int) "one warning" 1
    (List.length (Checkpoint.warnings reopened))

(* A length field that overflows the bounds arithmetic is a malformed
   input, not an [Invalid_argument] from [String.sub]. *)
let test_codec_overflowing_length () =
  let w = Codec.writer () in
  Codec.int w max_int;
  Codec.string w "tail";
  match Codec.read_string (Codec.reader (Codec.contents w)) with
  | _ -> Alcotest.fail "overflowing length accepted"
  | exception Codec.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Supervision                                                          *)

let test_supervise_sweep_budget_exact () =
  let token =
    Supervise.start ~label:"t"
      { Supervise.deadline_s = None; max_sweeps = Some 5 }
  in
  for _ = 1 to 4 do
    Supervise.tick token
  done;
  match Supervise.tick token with
  | () -> Alcotest.fail "budget not enforced"
  | exception Supervise.Aborted msg ->
      Alcotest.(check bool) "labelled" true
        (String.length msg > 0 && String.sub msg 0 1 = "t")

let test_exit_codes () =
  Alcotest.(check int) "healthy" 0 (Supervise.exit_code Supervise.Healthy);
  Alcotest.(check int) "degraded" 3
    (Supervise.exit_code (Supervise.Degraded [ "r" ]));
  Alcotest.(check int) "insufficient" 4
    (Supervise.exit_code (Supervise.Insufficient [ "r" ]))

(* ------------------------------------------------------------------ *)
(* Campaign kill-and-resume                                             *)

let mini_world =
  lazy
    (Sc.World.build
       {
         Sc.World.default_params with
         n_vantage_hosts = 8;
         topology =
           { Because_topology.Generate.default_params with
             n_transit = 12; n_stub = 30 };
       })

let mini_params ~jobs ~sim_jobs =
  let p = Sc.Campaign.default_params ~update_interval:60.0 in
  let p =
    { p with
      Sc.Campaign.cycles = 1;
      infer_config =
        { p.Sc.Campaign.infer_config with
          Because.Infer.n_samples = 120; burn_in = 80 } }
  in
  Sc.Campaign.with_jobs ~sim_jobs p jobs

(* Everything result-bearing and Marshal-safe in one digest; chains and
   acceptance rates compared separately at the IEEE bit level.  No_sharing
   because checkpoint decode rebuilds structurally-equal values without the
   original physical sharing (an update delivered to several vantages is
   one block in a live run, several after a round-trip) and the comparison
   must be structural. *)
let outcome_digest (o : Sc.Campaign.outcome) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( o.Sc.Campaign.records, o.Sc.Campaign.labeled,
            o.Sc.Campaign.windows, o.Sc.Campaign.oscillating,
            o.Sc.Campaign.anchors, o.Sc.Campaign.categories_step1,
            o.Sc.Campaign.categories, o.Sc.Campaign.promotions,
            o.Sc.Campaign.heuristic_verdicts, o.Sc.Campaign.deliveries,
            o.Sc.Campaign.events, o.Sc.Campaign.fault_log,
            o.Sc.Campaign.insufficient, o.Sc.Campaign.warnings,
            o.Sc.Campaign.status )
          [ Marshal.No_sharing ]))

let runs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ra : Because.Infer.sampler_run) (rb : Because.Infer.sampler_run) ->
         String.equal ra.Because.Infer.name rb.Because.Infer.name
         && ra.Because.Infer.chain_index = rb.Because.Infer.chain_index
         && Int64.equal
              (Int64.bits_of_float ra.Because.Infer.acceptance)
              (Int64.bits_of_float rb.Because.Infer.acceptance)
         && Chain.equal ra.Because.Infer.chain rb.Because.Infer.chain)
       a b

(* Tags 0/1/2 (the retired row-array generation) no longer decode.  A
   store holding one quarantines it like a checksum failure, and the chain
   starts cold: bit-for-bit the draws of a run with no checkpoint at all. *)
let test_retired_snapshot_tag_quarantined () =
  let st, _ =
    capture_at 25 (fun ~control ->
        Metropolis.run_single_site ~rng:(Rng.create 13) ~control
          ~n_samples:30 ~burn_in:10 unit_target)
  in
  let flat =
    Chain_ckpt.encode_saved
      { Chain_ckpt.state = Sampler_state.Mh st; layout = "" }
  in
  let retired = "\000" ^ String.sub flat 1 (String.length flat - 1) in
  (match Chain_ckpt.decode_saved retired with
  | _ -> Alcotest.fail "retired tag 0 decoded"
  | exception Codec.Malformed msg ->
      Alcotest.(check string) "names the tag"
        "unsupported sampler snapshot tag 0" msg);
  let data =
    Because.Tomography.of_observations
      (List.map
         (fun (path, rfd) -> (List.map Because_bgp.Asn.of_int path, rfd))
         [ ([ 1; 2; 3 ], true); ([ 1; 4 ], false); ([ 2; 5 ], true);
           ([ 4; 5 ], false) ])
  in
  let run checkpoint =
    Because.Infer.run ~rng:(Rng.create 3)
      ~config:
        { Because.Infer.default_config with
          n_samples = 40; burn_in = 20; checkpoint }
      data
  in
  let dir = fresh_dir () in
  let store = Checkpoint.open_ ~dir ~fingerprint:"fp-retired" () in
  Checkpoint.save store ~key:"MH.chain0" retired;
  let recovery = Sc.Recovery.create ~dir ~resume:true () in
  Sc.Recovery.attach recovery ~fingerprint:"fp-retired";
  let resumed =
    run (Some (Sc.Recovery.chain_hooks recovery ~namespace:""))
  in
  Alcotest.(check int) "quarantine counted" 1 (Sc.Recovery.fallbacks recovery);
  Alcotest.(check bool) "file quarantined" true
    (List.exists
       (fun f -> contains ~sub:"corrupt" f)
       (Array.to_list (Sys.readdir dir)));
  Alcotest.(check bool) "chain starts cold" true
    (runs_equal (run None).Because.Infer.runs resumed.Because.Infer.runs)

(* A snapshot whose cache state has the wrong length — what an MH snapshot
   written before duplicate observations were collapsed (point ++ one sum
   per observation, not per distinct path) looks like — is unusable: the
   chain starts cold with a warning, bit-for-bit the draws of a run with no
   checkpoint, instead of raising out of [Infer.run]. *)
let test_wrong_size_cache_snapshot_starts_cold () =
  let data =
    Because.Tomography.of_observations
      (List.map
         (fun (path, rfd) -> (List.map Because_bgp.Asn.of_int path, rfd))
         [ ([ 1; 2; 3 ], true); ([ 1; 4 ], false); ([ 1; 2; 3 ], true);
           ([ 2; 5 ], true); ([ 1; 4 ], true); ([ 4; 5 ], false) ])
  in
  let run checkpoint =
    Because.Infer.run ~rng:(Rng.create 3)
      ~config:
        { Because.Infer.default_config with
          n_samples = 40; burn_in = 20; checkpoint }
      data
  in
  let saved = Hashtbl.create 4 in
  let hooks load =
    { Chain_ckpt.load;
      save = (fun ~key ~sweep:_ sv -> Hashtbl.replace saved key sv);
      every_sweeps = Some 10;
      every_seconds = None }
  in
  let cold = run None in
  ignore (run (Some (hooks (fun ~key:_ -> None))));
  let sv = Hashtbl.find saved "MH.chain0" in
  let st =
    match sv.Chain_ckpt.state with
    | Sampler_state.Mh st -> st
    | _ -> Alcotest.fail "MH snapshot expected"
  in
  let extra =
    Because.Tomography.n_observations data - Because.Tomography.n_paths data
  in
  let wrong =
    { st with
      Metropolis.s_cache =
        Option.map
          (fun c -> Array.append c (Array.make extra 0.0))
          st.Metropolis.s_cache }
  in
  let resumed =
    run
      (Some
         (hooks (fun ~key ->
              if key = "MH.chain0" then
                Some { sv with Chain_ckpt.state = Sampler_state.Mh wrong }
              else None)))
  in
  Alcotest.(check bool) "chain starts cold" true
    (runs_equal cold.Because.Infer.runs resumed.Because.Infer.runs);
  Alcotest.(check bool) "warning names the snapshot" true
    (List.exists
       (fun w -> contains ~sub:"snapshot unusable" w)
       resumed.Because.Infer.warnings)

(* A chain snapshot as builds with divergence restarts wrote it: the
   sampler state, the restart warnings accumulated before it, then the
   layout unless it was the full one. *)
let parent_payload ?(warnings = []) ?(layout = "") state =
  let w = Codec.writer () in
  Sampler_state.encode w state;
  Codec.list w Codec.string warnings;
  if layout <> "" then Codec.string w layout;
  Codec.contents w

(* Such a payload either reads as the same state and layout or is
   rejected, which quarantines it and reruns that chain cold: a full-layout
   one carries an empty warning list, whose zero count reads as layout "";
   a split-layout one or one with warnings leaves bytes unread. *)
let test_parent_chain_payload () =
  let st, _ =
    capture_at 25 (fun ~control ->
        Metropolis.run_single_site ~rng:(Rng.create 13) ~control
          ~n_samples:30 ~burn_in:10 unit_target)
  in
  let state = Sampler_state.Mh st in
  let full = Chain_ckpt.decode_saved (parent_payload state) in
  Alcotest.(check string) "full layout reads as the full one" ""
    full.Chain_ckpt.layout;
  Alcotest.(check string) "same state, same bytes" (parent_payload state)
    (Chain_ckpt.encode_saved full);
  List.iter
    (fun (what, payload) ->
      match Chain_ckpt.decode_saved payload with
      | _ -> Alcotest.failf "%s payload decoded" what
      | exception Codec.Malformed _ -> ())
    [ ("split-layout", parent_payload ~layout:"coupled 2/3 0f" state);
      ("warning-carrying",
       parent_payload ~warnings:[ "MH attempt 1/3 diverged: x" ] state) ]

(* Snapshots from before the exact/coupled split cover every dataset node
   and carry no layout.  At eps = 0 the chains sample the coupled set only,
   so such a snapshot must start cold with a warning — here even though its
   sizes fit: every node lies on an RFD-labeled path and every distinct
   path carries an RFD label, so the reduced target has the full dimension
   and the full cache size. *)
let test_full_layout_snapshot_starts_cold () =
  let data =
    Because.Tomography.of_observations
      (List.map
         (fun (path, rfd) -> (List.map Because_bgp.Asn.of_int path, rfd))
         [ ([ 1; 2; 3 ], true); ([ 1; 2; 3 ], false); ([ 2; 4 ], true);
           ([ 3; 4 ], true); ([ 3; 4 ], false) ])
  in
  let config checkpoint =
    { Because.Infer.default_config with
      n_samples = 40; burn_in = 20; checkpoint }
  in
  let s = Because.Infer.split (config None) data in
  Alcotest.(check int) "no exact set" 0 (Array.length s.Because.Infer.exact);
  let reduced = Option.get s.Because.Infer.sampled in
  Alcotest.(check int) "same paths" (Because.Tomography.n_paths data)
    (Because.Tomography.n_paths (Because.Model.dataset reduced));
  (* What a build without layouts saved mid-run: the full target's state,
     encoded with no layout. *)
  let st, _ =
    capture_at 30 (fun ~control ->
        Metropolis.run_single_site ~rng:(Rng.create 9) ~control
          ~n_samples:40 ~burn_in:20
          (Because.Model.target (Because.Model.create data)))
  in
  let parent =
    Chain_ckpt.decode_saved (parent_payload (Sampler_state.Mh st))
  in
  let hooks load saved =
    { Chain_ckpt.load;
      save = (fun ~key ~sweep:_ sv -> Hashtbl.replace saved key sv);
      every_sweeps = Some 10;
      every_seconds = None }
  in
  let run checkpoint =
    Because.Infer.run ~rng:(Rng.create 3) ~config:(config checkpoint) data
  in
  let cold = run None in
  let written = Hashtbl.create 4 in
  let resumed =
    run
      (Some
         (hooks
            (fun ~key -> if key = "MH.chain0" then Some parent else None)
            written))
  in
  Alcotest.(check bool) "chain starts cold" true
    (runs_equal cold.Because.Infer.runs resumed.Because.Infer.runs);
  Alcotest.(check bool) "warning names the snapshot" true
    (List.exists
       (fun w -> contains ~sub:"snapshot unusable" w)
       resumed.Because.Infer.warnings);
  (* The new snapshots name their layout, survive the codec, and resume
     without a warning. *)
  let sv = Hashtbl.find written "MH.chain0" in
  Alcotest.(check string) "layout written" s.Because.Infer.layout
    sv.Chain_ckpt.layout;
  let sv = Chain_ckpt.decode_saved (Chain_ckpt.encode_saved sv) in
  let again =
    run (Some (hooks (fun ~key:_ -> Some sv) (Hashtbl.create 4)))
  in
  Alcotest.(check (list string)) "no warning" [] again.Because.Infer.warnings;
  Alcotest.(check bool) "resumed bit-for-bit" true
    (runs_equal cold.Because.Infer.runs again.Because.Infer.runs)

let check_outcomes_equal ~what a b =
  Alcotest.(check string)
    (what ^ ": outcome digest")
    (outcome_digest a) (outcome_digest b);
  match (a.Sc.Campaign.result, b.Sc.Campaign.result) with
  | None, None -> ()
  | Some ra, Some rb ->
      Alcotest.(check bool) (what ^ ": chains bit-for-bit") true
        (runs_equal ra.Because.Infer.runs rb.Because.Infer.runs);
      Alcotest.(check (list string))
        (what ^ ": infer warnings")
        ra.Because.Infer.warnings rb.Because.Infer.warnings;
      Alcotest.(check (list string))
        (what ^ ": aborted")
        ra.Because.Infer.aborted rb.Because.Infer.aborted
  | _ -> Alcotest.failf "%s: one run has a posterior, the other does not" what

(* Run the campaign with a kill armed after [kill_after] saves; a [None]
   budget completes cleanly.  Returns the outcome when the run survived. *)
let run_checkpointed ?kill_after ?(faults = Plan.empty) ~resume ~dir ~jobs
    ~sim_jobs () =
  let kill_switch =
    Option.map
      (fun limit ->
        let saves = Atomic.make 0 in
        fun () -> Atomic.fetch_and_add saves 1 >= limit)
      kill_after
  in
  let recovery =
    Sc.Recovery.create ~dir ~resume ~every_sweeps:25 ?kill_switch ()
  in
  let world = Lazy.force mini_world in
  let params = { (mini_params ~jobs ~sim_jobs) with Sc.Campaign.faults } in
  match Sc.Campaign.run ~recovery world params with
  | outcome -> Some (outcome, recovery)
  | exception Sc.Recovery.Killed -> None

let test_kill_and_resume ~jobs ~sim_jobs () =
  let clean =
    match
      Sc.Campaign.run (Lazy.force mini_world) (mini_params ~jobs ~sim_jobs)
    with
    | o -> o
  in
  (* Count the saves of an uninterrupted checkpointed run, then kill at a
     spread of save indices (first, middle, late) and resume each. *)
  let dir0 = fresh_dir () in
  let total_saves =
    match run_checkpointed ~resume:false ~dir:dir0 ~jobs ~sim_jobs () with
    | Some (full, recovery) ->
        check_outcomes_equal ~what:"checkpointing on vs off" clean full;
        Sc.Recovery.saves recovery
    | None -> Alcotest.fail "unkilled run raised Killed"
  in
  Alcotest.(check bool)
    (Printf.sprintf "enough save points to kill at (%d)" total_saves)
    true (total_saves >= 3);
  List.iter
    (fun kill_after ->
      let dir = fresh_dir () in
      (match
         run_checkpointed ~kill_after ~resume:false ~dir ~jobs ~sim_jobs ()
       with
      | None -> ()
      | Some _ -> Alcotest.failf "kill at save %d never fired" kill_after);
      match run_checkpointed ~resume:true ~dir ~jobs ~sim_jobs () with
      | None -> Alcotest.failf "resume after kill %d was killed" kill_after
      | Some (resumed, recovery) ->
          Alcotest.(check bool)
            (Printf.sprintf "kill %d: something was restored or resumable"
               kill_after)
            true
            (Sc.Recovery.restores recovery >= 0);
          check_outcomes_equal
            ~what:(Printf.sprintf "kill at save %d" kill_after)
            clean resumed)
    [ 1; total_saves / 2; total_saves - 1 ]

let qcheck_kill_any_save_point =
  (* The full property: for a random kill point and both parallelism
     shapes, interrupted-then-resumed equals uninterrupted bit-for-bit. *)
  let clean = lazy (
    Sc.Campaign.run (Lazy.force mini_world) (mini_params ~jobs:1 ~sim_jobs:1))
  in
  QCheck.Test.make ~name:"kill at a random save point, resume, bit-for-bit"
    ~count:6
    QCheck.(pair (int_range 1 12) (int_range 0 1))
    (fun (kill_after, par) ->
      let jobs = if par = 1 then 4 else 1 in
      let sim_jobs = jobs in
      let dir = fresh_dir () in
      match
        run_checkpointed ~kill_after ~resume:false ~dir ~jobs ~sim_jobs ()
      with
      | Some (outcome, _) ->
          (* Kill point beyond the run's total saves: completed normally —
             must still equal the clean run. *)
          outcome_digest outcome = outcome_digest (Lazy.force clean)
      | None -> (
          match run_checkpointed ~resume:true ~dir ~jobs ~sim_jobs () with
          | None -> false
          | Some (resumed, _) ->
              let c = Lazy.force clean in
              outcome_digest resumed = outcome_digest c
              &&
              (match (resumed.Sc.Campaign.result, c.Sc.Campaign.result) with
              | Some ra, Some rb ->
                  runs_equal ra.Because.Infer.runs rb.Because.Infer.runs
              | None, None -> true
              | _ -> false)))

let test_corrupted_checkpoint_recovers () =
  let dir = fresh_dir () in
  let clean =
    match run_checkpointed ~resume:false ~dir ~jobs:1 ~sim_jobs:1 () with
    | Some (o, _) -> o
    | None -> Alcotest.fail "clean run was killed"
  in
  (* Corrupt every snapshot of one chain (latest and previous), then
     resume: CRC detection must quarantine both, restart that chain from
     scratch, and still deliver the identical outcome plus a warning. *)
  Array.iter
    (fun f ->
      if
        Filename.check_suffix f ".ck"
        && String.length f >= 6
        && String.sub f 0 6 = "iv0.MH"
      then corrupt_file (Filename.concat dir f))
    (Sys.readdir dir);
  match run_checkpointed ~resume:true ~dir ~jobs:1 ~sim_jobs:1 () with
  | None -> Alcotest.fail "resume over corruption was killed"
  | Some (resumed, recovery) ->
      check_outcomes_equal ~what:"resume over corrupted chain snapshots"
        clean resumed;
      Alcotest.(check bool) "corruption warned" true
        (Sc.Recovery.warnings recovery <> [])

(* A shard snapshot that passes its CRC but fails to decode goes through
   the store's quarantine, exactly like a chain snapshot: it is renamed
   *.corrupt-N, counted as a fallback, and the previous snapshot is used. *)
let test_undecodable_shard_snapshot_recovers () =
  let dir = fresh_dir () in
  let clean =
    match run_checkpointed ~resume:false ~dir ~jobs:1 ~sim_jobs:1 () with
    | Some (o, _) -> o
    | None -> Alcotest.fail "clean run was killed"
  in
  (* The MANIFEST payload is the campaign fingerprint; reopening the store
     under it keeps the run's snapshots. *)
  let fingerprint =
    let blob =
      In_channel.with_open_bin (Filename.concat dir "MANIFEST")
        In_channel.input_all
    in
    let r = Codec.reader (String.sub blob 0 (String.length blob - 8)) in
    ignore (Codec.read_string r);
    ignore (Codec.read_int r);
    ignore (Codec.read_string r);
    Codec.read_string r
  in
  let store = Checkpoint.open_ ~dir ~fingerprint () in
  let key =
    Printf.sprintf "sim.shard0of%d"
      (Array.length clean.Sc.Campaign.shard_events)
  in
  (match Checkpoint.load store ~key with
  | Some payload ->
      (* One trailing byte: the envelope is sound, the payload is not. *)
      Checkpoint.save store ~key (payload ^ "\000")
  | None -> Alcotest.failf "no %s snapshot after a checkpointed run" key);
  match run_checkpointed ~resume:true ~dir ~jobs:1 ~sim_jobs:1 () with
  | None -> Alcotest.fail "resume over an undecodable shard was killed"
  | Some (resumed, recovery) ->
      Alcotest.(check string) "outcome digest" (outcome_digest clean)
        (outcome_digest resumed);
      Alcotest.(check int) "one fallback" 1 (Sc.Recovery.fallbacks recovery);
      Alcotest.(check bool) "shard snapshot quarantined" true
        (Array.exists
           (fun f -> contains ~sub:(key ^ ".prev.ck.corrupt-") f)
           (Sys.readdir dir));
      Alcotest.(check bool) "previous snapshot used" true
        (List.exists
           (contains ~sub:"from the previous snapshot")
           (Sc.Recovery.warnings recovery))

let test_budget_degrades_campaign () =
  let world = Lazy.force mini_world in
  let p = mini_params ~jobs:1 ~sim_jobs:1 in
  let p =
    { p with
      Sc.Campaign.infer_config =
        { p.Sc.Campaign.infer_config with
          Because.Infer.supervise =
            { Supervise.deadline_s = None; max_sweeps = Some 40 } } }
  in
  let outcome = Sc.Campaign.run world p in
  (match outcome.Sc.Campaign.status with
  | Supervise.Degraded reasons ->
      Alcotest.(check bool) "reasons name the budget" true
        (List.exists (contains ~sub:"budget") reasons)
  | s -> Alcotest.failf "expected Degraded, got %s" (Supervise.status_label s));
  Alcotest.(check int) "degraded exit code" 3
    (Supervise.exit_code outcome.Sc.Campaign.status);
  (* Heuristic localization still works on the degraded outcome. *)
  Alcotest.(check bool) "heuristic verdicts survive" true
    (outcome.Sc.Campaign.heuristic_verdicts <> [])

let test_resume_with_different_jobs () =
  (* Checkpoints carry exact RNG stream state, so a resume may change the
     worker count freely — outcomes are jobs-invariant either way. *)
  let clean =
    Sc.Campaign.run (Lazy.force mini_world) (mini_params ~jobs:1 ~sim_jobs:1)
  in
  let dir = fresh_dir () in
  (match
     run_checkpointed ~kill_after:3 ~resume:false ~dir ~jobs:1 ~sim_jobs:1 ()
   with
  | None -> ()
  | Some _ -> Alcotest.fail "kill never fired");
  match run_checkpointed ~resume:true ~dir ~jobs:4 ~sim_jobs:4 () with
  | None -> Alcotest.fail "resume was killed"
  | Some (resumed, _) ->
      check_outcomes_equal ~what:"resume under different parallelism" clean
        resumed

(* ------------------------------------------------------------------ *)
(* Faulted campaigns are invariant in the unfingerprinted fields        *)

(* A severe fault plan for the mini world: resets, flaps, outages and
   lossy, duplicating sessions. *)
let severe_plan seed =
  let w = Lazy.force mini_world in
  Plan.draw (Rng.create seed) Plan.severe
    ~links:(Because_topology.Graph.links (Sc.World.graph w))
    ~site_ids:(List.map fst (Sc.World.site_origins w))
    ~vp_ids:
      (List.map
         (fun (v : Because_collector.Vantage.t) ->
           v.Because_collector.Vantage.vp_id)
         (Sc.World.vantages w))
    ~horizon:(Sc.Campaign.horizon (mini_params ~jobs:1 ~sim_jobs:1))

let faulted_run ~sim_jobs ~jobs faults =
  let p = mini_params ~jobs ~sim_jobs in
  Sc.Campaign.run (Lazy.force mini_world) { p with Sc.Campaign.faults }

(* Every field [Campaign.fingerprint] leaves out, varied away from the
   sequential setting on a severe plan: the outcome (labels, categories,
   fault log, deliveries, events and the rest of the digest) must not
   move, or a resume under other settings would mix two datasets. *)
let qcheck_faulted_outcome_ignores_excluded_fields =
  QCheck.Test.make ~name:"faulted outcome ignores sim_jobs and infer jobs"
    ~count:3
    QCheck.(
      pair (int_bound 1000) (make Gen.(oneofl [ (1, 2); (2, 1); (2, 2) ])))
    (fun (seed, (sim_jobs, jobs)) ->
      let faults = severe_plan seed in
      let base = faulted_run ~sim_jobs:1 ~jobs:1 faults in
      let varied = faulted_run ~sim_jobs ~jobs faults in
      outcome_digest base = outcome_digest varied)

(* The severe plan drawn with seed 1000 delivers 10.0.1.0/24 and
   10.1.1.0/24 to vantage 4 at one instant, from two shards: the merged
   feeds, and so the records, must order them by prefix rank whichever
   shard finishes first. *)
let test_faulted_equal_time_feed_order () =
  let faults = severe_plan 1000 in
  let base = outcome_digest (faulted_run ~sim_jobs:1 ~jobs:1 faults) in
  List.iter
    (fun (sim_jobs, jobs) ->
      Alcotest.(check string)
        (Printf.sprintf "sim_jobs %d, jobs %d" sim_jobs jobs)
        base
        (outcome_digest (faulted_run ~sim_jobs ~jobs faults)))
    [ (2, 1); (2, 2) ]

(* Kill a faulted checkpointed run under [sim_jobs = 1], resume it under
   [sim_jobs = 2]: the partition does not depend on [sim_jobs], so the
   finished shards restore while the chains continue from their snapshots,
   and the two must still agree with the uninterrupted run. *)
let test_faulted_resume_across_sim_jobs () =
  let faults = severe_plan 1 in
  let clean = faulted_run ~sim_jobs:1 ~jobs:1 faults in
  Alcotest.(check bool) "the plan loses or duplicates updates" true
    (List.exists
       (fun (_, ev) ->
         match ev with
         | Because_faults.Injector.Update_lost _
         | Because_faults.Injector.Update_duplicated _ -> true
         | _ -> false)
       clean.Sc.Campaign.fault_log);
  let dir = fresh_dir () in
  (match
     run_checkpointed ~kill_after:3 ~faults ~resume:false ~dir ~jobs:1
       ~sim_jobs:1 ()
   with
  | None -> ()
  | Some _ -> Alcotest.fail "kill never fired");
  match run_checkpointed ~faults ~resume:true ~dir ~jobs:1 ~sim_jobs:2 () with
  | None -> Alcotest.fail "resume was killed"
  | Some (resumed, recovery) ->
      Alcotest.(check bool) "a chain snapshot was restored" true
        (Sc.Recovery.restores recovery > 0);
      check_outcomes_equal ~what:"faulted resume under sim_jobs 2" clean
        resumed

let test_shard_result_codec_roundtrip () =
  let sr =
    {
      Because_sim.Sharded.shard_feeds =
        [
          ( Because_bgp.Asn.of_int 65001,
            [
              ( 12.5,
                Because_bgp.Update.Announce
                  {
                    prefix = Because_bgp.Prefix.make 0x0A000000l 24;
                    as_path =
                      [ Because_bgp.Asn.of_int 65001;
                        Because_bgp.Asn.of_int 65002 ];
                    aggregator =
                      Some
                        {
                          Because_bgp.Update.aggregator_asn =
                            Because_bgp.Asn.of_int 65002;
                          sent_at = 12.25;
                          valid = true;
                        };
                  } );
              ( 99.75,
                Because_bgp.Update.Withdraw
                  { prefix = Because_bgp.Prefix.make 0x0A000000l 24 } );
            ] );
          (* Fractional times that no short decimal spells exactly, an
             announcement without an aggregator, and an invalid
             aggregator: the codec must keep every bit of each. *)
          ( Because_bgp.Asn.of_int 65003,
            [
              ( 0.1 +. 0.2,
                Because_bgp.Update.Announce
                  {
                    prefix = Because_bgp.Prefix.make 0xC0000200l 23;
                    as_path = [ Because_bgp.Asn.of_int 65003 ];
                    aggregator = None;
                  } );
              ( 1.0 /. 3.0,
                Because_bgp.Update.Announce
                  {
                    prefix = Because_bgp.Prefix.make 0xC0000200l 23;
                    as_path =
                      [ Because_bgp.Asn.of_int 65003;
                        Because_bgp.Asn.of_int 65001 ];
                    aggregator =
                      Some
                        {
                          Because_bgp.Update.aggregator_asn =
                            Because_bgp.Asn.of_int 65001;
                          sent_at = Float.pred 7200.0;
                          valid = false;
                        };
                  } );
              ( Float.succ 86400.0,
                Because_bgp.Update.Withdraw
                  { prefix = Because_bgp.Prefix.make 0xC0000200l 23 } );
            ] );
        ];
      shard_stats =
        {
          Because_sim.Network.deliveries = 7;
          announcements = 3;
          withdrawals = 2;
          lost = 1;
          duplicated = 0;
          session_drops = 4;
          session_recoveries = 4;
        };
      shard_fault_log =
        [
          ( 5.0,
            Because_sim.Network.Fault_session_down
              {
                owner = Because_bgp.Asn.of_int 65001;
                peer = Because_bgp.Asn.of_int 65002;
                reason = "reset";
              } );
          ( 6.0,
            Because_sim.Network.Fault_update_lost
              {
                from_asn = Because_bgp.Asn.of_int 65002;
                to_asn = Because_bgp.Asn.of_int 65003;
                prefix = Because_bgp.Prefix.make 0xC0000200l 23;
              } );
        ];
      shard_events_count = 42;
    }
  in
  let back = Sc.Recovery.decode_shard_result (Sc.Recovery.encode_shard_result sr) in
  Alcotest.(check string) "shard_result round-trips"
    (Digest.to_hex (Digest.string (Marshal.to_string sr [ Marshal.No_sharing ])))
    (Digest.to_hex (Digest.string (Marshal.to_string back [ Marshal.No_sharing ])))

let suite =
  ( "recover",
    [
      Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
      Alcotest.test_case "wrong-size cache snapshot starts cold" `Quick
        test_wrong_size_cache_snapshot_starts_cold;
      Alcotest.test_case "full-layout snapshot starts cold" `Quick
        test_full_layout_snapshot_starts_cold;
      Alcotest.test_case "parent chain payload" `Quick
        test_parent_chain_payload;
      Alcotest.test_case "codec truncation detected" `Quick
        test_codec_truncation;
      QCheck_alcotest.to_alcotest qcheck_codec_floats;
      Alcotest.test_case "flat sampler snapshot round-trip" `Quick
        test_sampler_state_flat_roundtrip;
      Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
      Alcotest.test_case "store corruption falls back" `Quick
        test_store_corruption_falls_back;
      Alcotest.test_case "store fingerprint mismatch" `Quick
        test_store_fingerprint_mismatch;
      Alcotest.test_case "store rejects transplanted key" `Quick
        test_store_wrong_key_rejected;
      Alcotest.test_case "store slots rewritten in place" `Quick
        test_store_slots_rewritten_in_place;
      Alcotest.test_case "store reads version-1 slots" `Quick
        test_store_reads_v1_slots;
      Alcotest.test_case "codec rejects an overflowing length" `Quick
        test_codec_overflowing_length;
      Alcotest.test_case "retired snapshot tag quarantined" `Quick
        test_retired_snapshot_tag_quarantined;
      Alcotest.test_case "sweep budget exact" `Quick
        test_supervise_sweep_budget_exact;
      Alcotest.test_case "exit codes 0/3/4" `Quick test_exit_codes;
      Alcotest.test_case "shard_result codec round-trip" `Quick
        test_shard_result_codec_roundtrip;
      Alcotest.test_case "kill and resume (sequential)" `Slow
        (test_kill_and_resume ~jobs:1 ~sim_jobs:1);
      Alcotest.test_case "kill and resume (4 jobs)" `Slow
        (test_kill_and_resume ~jobs:4 ~sim_jobs:4);
      QCheck_alcotest.to_alcotest qcheck_kill_any_save_point;
      Alcotest.test_case "corrupted chain snapshot recovers" `Slow
        test_corrupted_checkpoint_recovers;
      Alcotest.test_case "undecodable shard snapshot recovers" `Slow
        test_undecodable_shard_snapshot_recovers;
      Alcotest.test_case "budget degrades, exit 3" `Slow
        test_budget_degrades_campaign;
      Alcotest.test_case "resume under different parallelism" `Slow
        test_resume_with_different_jobs;
      QCheck_alcotest.to_alcotest
        qcheck_faulted_outcome_ignores_excluded_fields;
      Alcotest.test_case "faulted resume across sim_jobs" `Quick
        test_faulted_resume_across_sim_jobs;
      Alcotest.test_case "faulted equal-time feed order" `Quick
        test_faulted_equal_time_feed_order;
    ] )

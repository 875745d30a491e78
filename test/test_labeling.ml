open Because_bgp
module Clean = Because_labeling.Clean
module Signature = Because_labeling.Signature
module Label = Because_labeling.Label
module Dump = Because_collector.Dump
module Vantage = Because_collector.Vantage

let asn = Asn.of_int
let path ints = List.map asn ints
let prefix = Prefix.of_string "10.0.1.0/24"

let test_remove_prepending () =
  Alcotest.(check (list int)) "collapsed" [ 1; 2; 3 ]
    (List.map Asn.to_int (Clean.remove_prepending (path [ 1; 1; 1; 2; 3; 3 ])));
  Alcotest.(check (list int)) "untouched" [ 1; 2 ]
    (List.map Asn.to_int (Clean.remove_prepending (path [ 1; 2 ])));
  Alcotest.(check (list int)) "empty" []
    (List.map Asn.to_int (Clean.remove_prepending []))

let test_has_loop () =
  Alcotest.(check bool) "clean" false (Clean.has_loop (path [ 1; 2; 3 ]));
  Alcotest.(check bool) "loop" true (Clean.has_loop (path [ 1; 2; 1 ]));
  Alcotest.(check bool) "prepending is not a loop" false
    (Clean.has_loop (path [ 1; 1; 2 ]))

let test_clean () =
  Alcotest.(check (option (list int))) "ok" (Some [ 1; 2 ])
    (Option.map (List.map Asn.to_int) (Clean.clean (path [ 1; 1; 2 ])));
  Alcotest.(check (option (list int))) "loop dropped" None
    (Option.map (List.map Asn.to_int) (Clean.clean (path [ 1; 2; 1 ])))

let agg ?(valid = true) t =
  Some { Update.aggregator_asn = asn 65001; sent_at = t; valid }

let announce ?valid ~sent p =
  Update.Announce { prefix; as_path = path p; aggregator = agg ?valid sent }

let withdraw = Update.Withdraw { prefix }

(* A Burst [1000, 2000], Break until 6000. *)
let window = (1000.0, 2000.0, 6000.0)

let test_signature_clean_pair () =
  (* Updates flow normally through the burst, nothing in the break. *)
  let times =
    List.concat_map
      (fun k ->
        let t = 1000.0 +. (200.0 *. float_of_int k) in
        [ (t, withdraw); (t +. 100.0, announce ~sent:(t +. 95.0) [ 9; 65001 ]) ])
      [ 0; 1; 2; 3; 4 ]
  in
  let pair = Signature.analyse_pair ~times ~window () in
  Alcotest.(check bool) "not damped" false pair.Signature.damped;
  Alcotest.(check int) "updates counted" 10 pair.Signature.burst_updates;
  Alcotest.(check (option (list int))) "dominant path" (Some [ 9; 65001 ])
    (Option.map (List.map Asn.to_int) pair.Signature.burst_dominant_path)

let test_signature_damped_pair () =
  let times =
    [
      (1000.0, withdraw);
      (1100.0, announce ~sent:1095.0 [ 9; 7; 65001 ]);
      (1200.0, withdraw);
      (* silence — suppressed — then the held-back final announcement
         (sent at burst end 2000) arrives mid-break: *)
      (3500.0, announce ~sent:2000.0 [ 9; 7; 65001 ]);
    ]
  in
  let pair = Signature.analyse_pair ~times ~window () in
  Alcotest.(check bool) "damped" true pair.Signature.damped;
  Alcotest.(check (option (float 1e-9))) "r-delta = hold time" (Some 1500.0)
    pair.Signature.r_delta;
  Alcotest.(check (option (list int))) "attributed path" (Some [ 9; 7; 65001 ])
    (Option.map (List.map Asn.to_int) pair.Signature.readvertisement_path)

let test_signature_normal_delay_not_damped () =
  (* A break announcement with a small send→arrival delay is not damping. *)
  let times = [ (2140.0, announce ~sent:2000.0 [ 9; 65001 ]) ] in
  let pair = Signature.analyse_pair ~times ~window () in
  Alcotest.(check bool) "below threshold" false pair.Signature.damped

let test_signature_invalid_aggregator_ignored () =
  let times = [ (3500.0, announce ~valid:false ~sent:2000.0 [ 9; 65001 ]) ] in
  let pair = Signature.analyse_pair ~times ~window () in
  Alcotest.(check bool) "cannot qualify without timestamp" false
    pair.Signature.damped

let test_signature_converged_path () =
  (* First qualifying announcement carries a transient path; a later break
     announcement settles on the damped path. *)
  let times =
    [
      (3500.0, announce ~sent:2000.0 [ 9; 8; 65001 ]);
      (3560.0, announce ~sent:2000.0 [ 9; 7; 65001 ]);
    ]
  in
  let pair = Signature.analyse_pair ~times ~window () in
  Alcotest.(check bool) "damped" true pair.Signature.damped;
  Alcotest.(check (option (float 1e-9))) "timing from first" (Some 1500.0)
    pair.Signature.r_delta;
  Alcotest.(check (option (list int))) "path from converged" (Some [ 9; 7; 65001 ])
    (Option.map (List.map Asn.to_int) pair.Signature.readvertisement_path)

let vp = Vantage.make ~vp_id:0 ~host_asn:(asn 9) ~project:Because_collector.Project.Isolario

let record t update =
  { Dump.received_at = t; export_at = t; vp; update }

let test_label_damped_stream () =
  (* Two windows, both damped on path [9;7;65001]. *)
  let records =
    [
      record 1100.0 (announce ~sent:1095.0 [ 9; 7; 65001 ]);
      record 1200.0 withdraw;
      record 3500.0 (announce ~sent:2000.0 [ 9; 7; 65001 ]);
      record 7100.0 (announce ~sent:7095.0 [ 9; 7; 65001 ]);
      record 7200.0 withdraw;
      record 9500.0 (announce ~sent:8000.0 [ 9; 7; 65001 ]);
    ]
  in
  let windows = [ (1000.0, 2000.0, 6000.0); (7000.0, 8000.0, 12000.0) ] in
  match Label.label_all ~records ~windows_of:(fun _ -> windows) () with
  | [ lp ] ->
      Alcotest.(check bool) "rfd" true lp.Label.rfd;
      Alcotest.(check int) "matched" 2 lp.Label.matched_pairs;
      Alcotest.(check int) "total" 2 lp.Label.total_pairs;
      Alcotest.(check (list int)) "path" [ 9; 7; 65001 ]
        (List.map Asn.to_int lp.Label.path);
      Alcotest.(check (option (float 1e-9))) "mean r-delta" (Some 1500.0)
        lp.Label.mean_r_delta
  | l -> Alcotest.failf "expected one labeled path, got %d" (List.length l)

let test_label_threshold () =
  (* One damped window out of two: below the 90%% rule. *)
  let records =
    [
      record 1100.0 (announce ~sent:1095.0 [ 9; 65001 ]);
      record 3500.0 (announce ~sent:2000.0 [ 9; 65001 ]);
      record 7100.0 (announce ~sent:7095.0 [ 9; 65001 ]);
      record 7900.0 (announce ~sent:7895.0 [ 9; 65001 ]);
    ]
  in
  let windows = [ (1000.0, 2000.0, 6000.0); (7000.0, 8000.0, 12000.0) ] in
  (match Label.label_all ~records ~windows_of:(fun _ -> windows) () with
  | [ lp ] ->
      Alcotest.(check bool) "mixed evidence below 90%" false lp.Label.rfd;
      Alcotest.(check int) "matched" 1 lp.Label.matched_pairs;
      Alcotest.(check int) "total" 2 lp.Label.total_pairs
  | l -> Alcotest.failf "expected one labeled path, got %d" (List.length l));
  (* With a lax threshold the same evidence labels RFD. *)
  match
    Label.label_all ~match_threshold:0.5 ~records
      ~windows_of:(fun _ -> windows) ()
  with
  | [ lp ] -> Alcotest.(check bool) "lax threshold" true lp.Label.rfd
  | _ -> Alcotest.fail "expected one labeled path"

let test_label_path_split () =
  (* Damped evidence on the primary, clean evidence on the alternative:
     two labeled paths with opposite labels. *)
  let records =
    [
      record 1100.0 (announce ~sent:1095.0 [ 9; 7; 65001 ]);
      (* failover to the alternative which flaps through the burst *)
      record 1300.0 (announce ~sent:1295.0 [ 9; 8; 65001 ]);
      record 1500.0 (announce ~sent:1495.0 [ 9; 8; 65001 ]);
      record 1900.0 (announce ~sent:1895.0 [ 9; 8; 65001 ]);
      (* the release: primary path returns, long after its send time *)
      record 3500.0 (announce ~sent:2000.0 [ 9; 7; 65001 ]);
    ]
  in
  let windows = [ (1000.0, 2000.0, 6000.0) ] in
  let labeled = Label.label_all ~records ~windows_of:(fun _ -> windows) () in
  Alcotest.(check int) "two paths" 2 (List.length labeled);
  let damped = List.find (fun lp -> lp.Label.rfd) labeled in
  Alcotest.(check (list int)) "damped is the re-advertised path" [ 9; 7; 65001 ]
    (List.map Asn.to_int damped.Label.path);
  Alcotest.(check (list (list int))) "alternatives recorded" [ [ 9; 8; 65001 ] ]
    (List.map (List.map Asn.to_int) damped.Label.alternatives)

let test_label_all_groups () =
  let vp2 = Vantage.make ~vp_id:1 ~host_asn:(asn 10) ~project:Because_collector.Project.Ris in
  let other_prefix = Prefix.of_string "10.0.2.0/24" in
  let records =
    [
      record 1100.0 (announce ~sent:1095.0 [ 9; 65001 ]);
      { Dump.received_at = 1100.0; export_at = 1100.0; vp = vp2;
        update = announce ~sent:1095.0 [ 10; 65001 ] };
      (* a prefix with no windows is skipped *)
      record 1100.0
        (Update.Announce
           { prefix = other_prefix; as_path = path [ 9; 65001 ];
             aggregator = agg 1095.0 });
    ]
  in
  let windows_of p = if Prefix.equal p prefix then [ window ] else [] in
  let labeled = Label.label_all ~records ~windows_of () in
  Alcotest.(check int) "one per (vp,prefix) with windows" 2
    (List.length labeled);
  let obs = Label.observations labeled in
  Alcotest.(check int) "observations" 2 (List.length obs)

(* The windows sidecar round-trips, and a truncated or garbled line, a
   bad time or a missing file is a typed error naming the line — never an
   exception. *)
let test_windows_sidecar () =
  let path = Filename.temp_file "because" ".windows" in
  let other = Prefix.of_string "10.0.2.0/24" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Label.write_windows path
        [ (prefix, [ (0.0, 600.0, 7800.0); (9000.0, 9600.0, 16800.0) ]);
          (other, [ (1.5, 2.5, 3.5) ]) ];
      (match Label.read_windows path with
      | Ok windows_of ->
          Alcotest.(check (list (triple (float 0.0) (float 0.0) (float 0.0))))
            "file order" [ (0.0, 600.0, 7800.0); (9000.0, 9600.0, 16800.0) ]
            (windows_of prefix);
          Alcotest.(check int) "other prefix" 1 (List.length (windows_of other));
          Alcotest.(check int) "unknown prefix" 0
            (List.length (windows_of (Prefix.of_string "10.9.9.0/24")))
      | Error e -> Alcotest.fail e);
      let rejects name body ~line =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc body);
        match Label.read_windows path with
        | Ok _ -> Alcotest.failf "%s accepted" name
        | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s names line %d: %s" name line e) true
              (String.starts_with ~prefix:(Printf.sprintf "line %d: " line) e)
      in
      let good = "10.0.1.0/24 0.000000 600.000000 7800.000000\n" in
      rejects "truncated line" (good ^ "10.0.1.0/24 9000.000000 96") ~line:2;
      rejects "truncated prefix" "10.0.1\n" ~line:1;
      rejects "garbled prefix" (good ^ good ^ "10.0.300.0/24 1 2 3\n") ~line:3;
      rejects "garbled time" (good ^ "10.0.1.0/24 0.0 x6 7800.0\n") ~line:2;
      rejects "non-finite time" "10.0.1.0/24 nan 1.0 2.0\n" ~line:1;
      rejects "extra field" "10.0.1.0/24 1 2 3 4\n" ~line:1;
      rejects "blank line" (good ^ "\n" ^ good) ~line:2);
  let missing =
    Filename.concat (Filename.get_temp_dir_name ()) "no/such.windows"
  in
  match Label.read_windows missing with
  | Error e ->
      (* The caller names the file; the reason must not name it again. *)
      Alcotest.(check string) "I/O reason without the path"
        "No such file or directory" e
  | Ok _ -> Alcotest.fail "missing sidecar accepted"

(* Mutated sidecars (bit flips, truncation, overwritten words, as in the
   service snapshot tests): a typed result, never an exception.  Each case
   writes and parses a file, so tier-1 runs 50; QCHECK_LONG=1 runs 20
   times as many. *)
let qcheck_windows_mutants =
  let path = Filename.temp_file "because" ".windows" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Label.write_windows path
    [ (prefix, [ (0.0, 600.0, 7800.0); (9000.0, 9600.0, 16800.0) ]);
      (Prefix.of_string "10.0.2.0/24", [ (1.5, 2.5, 3.5) ]) ];
  let good = In_channel.with_open_bin path In_channel.input_all in
  QCheck.Test.make ~name:"mutated windows sidecars: Ok or Error, never raise"
    ~count:50 ~long_factor:20 Test_service.mutation_gen (fun m ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Test_service.mutate good m));
      match Label.read_windows path with Ok _ | Error _ -> true)

let suite =
  ( "labeling",
    [
      Alcotest.test_case "remove prepending" `Quick test_remove_prepending;
      Alcotest.test_case "has loop" `Quick test_has_loop;
      Alcotest.test_case "clean" `Quick test_clean;
      Alcotest.test_case "clean pair" `Quick test_signature_clean_pair;
      Alcotest.test_case "damped pair" `Quick test_signature_damped_pair;
      Alcotest.test_case "normal delay not damped" `Quick
        test_signature_normal_delay_not_damped;
      Alcotest.test_case "invalid aggregator ignored" `Quick
        test_signature_invalid_aggregator_ignored;
      Alcotest.test_case "converged path attribution" `Quick
        test_signature_converged_path;
      Alcotest.test_case "label damped stream" `Quick test_label_damped_stream;
      Alcotest.test_case "90% threshold" `Quick test_label_threshold;
      Alcotest.test_case "path evidence split" `Quick test_label_path_split;
      Alcotest.test_case "label_all grouping" `Quick test_label_all_groups;
      Alcotest.test_case "windows sidecar errors are typed" `Quick
        test_windows_sidecar;
      QCheck_alcotest.to_alcotest qcheck_windows_mutants;
    ] )

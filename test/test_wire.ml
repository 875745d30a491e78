(* RFC 4271 wire codec and MRT export. *)
open Because_bgp
module Mrt = Because_collector.Mrt
module Vantage = Because_collector.Vantage
module Dump = Because_collector.Dump

let asn = Asn.of_int
let prefix = Prefix.of_string "10.3.1.0/24"

let agg ?(valid = true) sent_at =
  { Update.aggregator_asn = asn 65003; sent_at; valid }

let announce ?aggregator path =
  Update.Announce { prefix; as_path = List.map asn path; aggregator }

let roundtrip u =
  match Wire.decode (Wire.encode u) with
  | Ok decoded -> decoded
  | Error e -> Alcotest.failf "decode failed: %a" Wire.pp_error e

let test_withdraw_roundtrip () =
  let u = Update.Withdraw { prefix } in
  Alcotest.(check bool) "roundtrip" true (Update.equal u (roundtrip u))

let test_announce_roundtrip () =
  let u = announce ~aggregator:(agg 7200.0) [ 10; 20; 65003 ] in
  Alcotest.(check bool) "roundtrip" true (Update.equal u (roundtrip u))

let test_announce_no_aggregator () =
  let u = announce [ 1; 2 ] in
  Alcotest.(check bool) "roundtrip" true (Update.equal u (roundtrip u))

let test_invalid_aggregator_is_zero_ip () =
  (* A corrupted aggregator is encoded as 0.0.0.0 and decodes invalid —
     the paper's "empty, invalid aggregator IP" observation. *)
  let u = announce ~aggregator:(agg ~valid:false 7200.0) [ 1 ] in
  match roundtrip u with
  | Update.Announce { aggregator = Some a; _ } ->
      Alcotest.(check bool) "invalid" false a.Update.valid;
      Alcotest.(check (float 0.0)) "timestamp lost" 0.0 a.Update.sent_at
  | _ -> Alcotest.fail "lost the announcement"

let test_timestamp_quantised_to_seconds () =
  let u = announce ~aggregator:(agg 7200.7) [ 1 ] in
  match roundtrip u with
  | Update.Announce { aggregator = Some a; _ } ->
      Alcotest.(check (float 0.0)) "whole seconds" 7200.0 a.Update.sent_at
  | _ -> Alcotest.fail "lost the announcement"

let test_message_framing () =
  let b = Wire.encode (announce [ 1; 2; 3 ]) in
  (* 16-byte marker, big-endian length, type 2 *)
  for i = 0 to 15 do
    Alcotest.(check int) "marker" 0xFF (Bytes.get_uint8 b i)
  done;
  Alcotest.(check int) "declared length" (Bytes.length b)
    (Bytes.get_uint16_be b 16);
  Alcotest.(check int) "type UPDATE" 2 (Bytes.get_uint8 b 18)

let test_malformed_rejected () =
  let good = Wire.encode (announce [ 1 ]) in
  let truncated = Bytes.sub good 0 (Bytes.length good - 3) in
  (match Wire.decode truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated message");
  let bad_marker = Bytes.copy good in
  Bytes.set_uint8 bad_marker 3 0;
  (match Wire.decode bad_marker with
  | Error Wire.Bad_marker -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Wire.pp_error e
  | Ok _ -> Alcotest.fail "accepted bad marker");
  let bad_type = Bytes.copy good in
  Bytes.set_uint8 bad_type 18 1;
  match Wire.decode bad_type with
  | Error (Wire.Bad_message_type 1) -> ()
  | _ -> Alcotest.fail "accepted non-UPDATE"

let test_stream_roundtrip () =
  let updates =
    [ announce ~aggregator:(agg 60.0) [ 1; 2 ];
      Update.Withdraw { prefix };
      announce [ 9; 8; 7; 65003 ] ]
  in
  match Wire.decode_many (Wire.encode_many updates) with
  | Ok decoded ->
      Alcotest.(check int) "count" 3 (List.length decoded);
      List.iter2
        (fun a b -> Alcotest.(check bool) "equal" true (Update.equal a b))
        updates decoded
  | Error e -> Alcotest.failf "stream decode: %a" Wire.pp_error e

let qcheck_wire_roundtrip =
  let gen =
    QCheck.Gen.(
      let* is_announce = bool in
      let* site = int_range 0 20 in
      let* slot = int_range 0 3 in
      let p = Prefix.beacon ~site ~slot in
      if not is_announce then return (Update.Withdraw { prefix = p })
      else
        let* path_len = int_range 1 8 in
        let* raw = list_repeat path_len (int_range 1 70000) in
        let* has_agg = bool in
        let* valid = bool in
        let* sent = int_range 0 1_000_000 in
        let aggregator =
          if has_agg then
            Some
              { Update.aggregator_asn = Asn.of_int 65001;
                sent_at = float_of_int sent; valid }
          else None
        in
        return
          (Update.Announce
             { prefix = p; as_path = List.map Asn.of_int raw; aggregator }))
  in
  QCheck.Test.make ~name:"wire roundtrip" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Update.pp) gen)
    (fun u ->
      match Wire.decode (Wire.encode u) with
      | Error _ -> false
      | Ok decoded -> (
          (* Timestamps quantise to seconds and invalid aggregators lose
             their timestamp; compare modulo that. *)
          match (u, decoded) with
          | Update.Withdraw a, Update.Withdraw b -> Prefix.equal a.prefix b.prefix
          | Update.Announce a, Update.Announce b ->
              Prefix.equal a.prefix b.prefix
              && List.for_all2 Asn.equal a.as_path b.as_path
              && (match (a.aggregator, b.aggregator) with
                 | None, None -> true
                 | Some x, Some y ->
                     Bool.equal x.Update.valid y.Update.valid
                     && ((not x.Update.valid)
                        || Float.equal (Float.of_int (int_of_float x.Update.sent_at))
                             y.Update.sent_at)
                 | _ -> false)
          | _ -> false))

(* MRT *)

let vp = Vantage.make ~vp_id:42 ~host_asn:(asn 1021) ~project:Because_collector.Project.Routeviews

let record t u = { Dump.received_at = t; export_at = t; vp; update = u }

let test_mrt_roundtrip () =
  let records =
    [ record 100.25 (announce ~aggregator:(agg 60.0) [ 1021; 300; 65003 ]);
      record 160.5 (Update.Withdraw { prefix });
      record 7200.0 (announce [ 1021; 65003 ]) ]
  in
  match Mrt.decode_records (Mrt.encode_records records) with
  | Error e -> Alcotest.fail e
  | Ok decoded ->
      Alcotest.(check int) "count" 3 (List.length decoded);
      List.iter2
        (fun (a : Dump.record) (b : Dump.record) ->
          Alcotest.(check bool) "update" true (Update.equal a.update b.update);
          Alcotest.(check bool) "timestamp (µs)" true
            (Float.abs (a.export_at -. b.export_at) < 1e-3);
          Alcotest.(check int) "vp id" a.vp.Vantage.vp_id b.vp.Vantage.vp_id;
          Alcotest.(check bool) "project" true
            (Because_collector.Project.equal a.vp.Vantage.project
               b.vp.Vantage.project);
          Alcotest.(check int) "peer AS"
            (Asn.to_int a.vp.Vantage.host_asn)
            (Asn.to_int b.vp.Vantage.host_asn))
        records decoded

let test_mrt_file_io () =
  let path = Filename.temp_file "because" ".mrt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let records = [ record 5.0 (announce [ 1021; 65003 ]) ] in
      Mrt.write_file path records;
      match Mrt.read_file path with
      | Ok [ r ] ->
          Alcotest.(check bool) "update survives" true
            (Update.equal r.Dump.update (List.hd records).Dump.update)
      | Ok l -> Alcotest.failf "expected 1 record, got %d" (List.length l)
      | Error e -> Alcotest.fail e)

let test_mrt_garbage_rejected () =
  (match Mrt.decode_records (Bytes.of_string "not an MRT file") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "no/such.mrt" in
  match Mrt.read_file missing with
  | Error e ->
      (* The caller names the file; the reason must not name it again. *)
      Alcotest.(check string) "I/O reason without the path"
        "No such file or directory" e
  | Ok _ -> Alcotest.fail "missing file accepted"

let suite =
  ( "wire",
    [
      Alcotest.test_case "withdraw roundtrip" `Quick test_withdraw_roundtrip;
      Alcotest.test_case "announce roundtrip" `Quick test_announce_roundtrip;
      Alcotest.test_case "announce without aggregator" `Quick
        test_announce_no_aggregator;
      Alcotest.test_case "invalid aggregator = 0.0.0.0" `Quick
        test_invalid_aggregator_is_zero_ip;
      Alcotest.test_case "timestamp quantisation" `Quick
        test_timestamp_quantised_to_seconds;
      Alcotest.test_case "message framing" `Quick test_message_framing;
      Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
      Alcotest.test_case "stream roundtrip" `Quick test_stream_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_wire_roundtrip;
      Alcotest.test_case "MRT roundtrip" `Quick test_mrt_roundtrip;
      Alcotest.test_case "MRT file IO" `Quick test_mrt_file_io;
      Alcotest.test_case "MRT garbage rejected" `Quick test_mrt_garbage_rejected;
    ] )

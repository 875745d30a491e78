(* Asn, Prefix, Update. *)
open Because_bgp

let test_asn_basics () =
  let a = Asn.of_int 65001 in
  Alcotest.(check int) "roundtrip" 65001 (Asn.to_int a);
  Alcotest.(check string) "print" "AS65001" (Asn.to_string a);
  Alcotest.(check bool) "equal" true (Asn.equal a (Asn.of_int 65001));
  Alcotest.(check bool) "ordering" true (Asn.compare (Asn.of_int 1) (Asn.of_int 2) < 0)

let test_asn_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Asn.of_int: out of range")
    (fun () -> ignore (Asn.of_int (-1)))

let test_asn_set_map () =
  let s = Asn.Set.of_list [ Asn.of_int 3; Asn.of_int 1; Asn.of_int 3 ] in
  Alcotest.(check int) "set dedups" 2 (Asn.Set.cardinal s)

let test_prefix_parse_print () =
  let p = Prefix.of_string "192.0.2.0/24" in
  Alcotest.(check string) "roundtrip" "192.0.2.0/24" (Prefix.to_string p);
  Alcotest.(check int) "length" 24 (Prefix.length p)

let test_prefix_masking () =
  let p = Prefix.of_string "10.1.2.200/24" in
  Alcotest.(check string) "host bits cleared" "10.1.2.0/24" (Prefix.to_string p)

let test_prefix_invalid () =
  List.iter
    (fun s ->
      match Prefix.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted malformed %s" s)
    [ "10.0.0.0"; "10.0.0/24"; "10.0.0.0/33"; "256.0.0.0/8"; "a.b.c.d/8" ]

let test_prefix_contains () =
  let outer = Prefix.of_string "10.0.0.0/8" in
  let inner = Prefix.of_string "10.5.0.0/16" in
  let other = Prefix.of_string "11.0.0.0/16" in
  Alcotest.(check bool) "contains" true (Prefix.contains outer inner);
  Alcotest.(check bool) "not contains" false (Prefix.contains outer other);
  Alcotest.(check bool) "not reverse" false (Prefix.contains inner outer);
  Alcotest.(check bool) "self" true (Prefix.contains outer outer)

let test_prefix_compare_unsigned () =
  (* 200.0.0.0 has the high bit set; unsigned comparison must still order it
     after 100.0.0.0. *)
  let low = Prefix.of_string "100.0.0.0/8" in
  let high = Prefix.of_string "200.0.0.0/8" in
  Alcotest.(check bool) "unsigned order" true (Prefix.compare low high < 0)

let test_beacon_allocator () =
  let p = Prefix.beacon ~site:3 ~slot:2 in
  Alcotest.(check string) "layout" "10.3.2.0/24" (Prefix.to_string p);
  Alcotest.(check bool) "distinct sites" false
    (Prefix.equal (Prefix.beacon ~site:1 ~slot:0) (Prefix.beacon ~site:2 ~slot:0))

let asn i = Asn.of_int i

let announce ?agg prefix path =
  Update.Announce
    { prefix = Prefix.of_string prefix; as_path = List.map asn path;
      aggregator = agg }

let test_path_loop_check () =
  let own = asn 7 in
  let path l = List.map asn l in
  List.iter
    (fun (name, l) ->
      Alcotest.(check bool) name true (Apath.loop_free own (path l) = None))
    [ ("own ASN at the head", [ 7; 2; 3 ]);
      ("own ASN in the middle", [ 2; 7; 3 ]);
      ("own ASN at the tail", [ 2; 3; 7 ]) ];
  List.iter
    (fun (name, l) ->
      match Apath.loop_free own (path l) with
      | None -> Alcotest.fail (name ^ ": rejected a loop-free path")
      | Some p ->
          let reference = Apath.of_list (path l) in
          Alcotest.(check int) (name ^ " length") (List.length l)
            (Apath.length p);
          Alcotest.(check bool) (name ^ " equals of_list") true
            (Apath.equal p reference);
          Alcotest.(check (list int)) (name ^ " nodes") l
            (List.map Asn.to_int (Apath.nodes p)))
    [ ("ASN absent", [ 2; 3; 5 ]); ("empty path", []) ];
  Alcotest.(check bool) "empty path equals Apath.empty" true
    (Apath.equal Apath.empty (Option.get (Apath.loop_free own [])))

let test_update_equal_aggregator () =
  let agg t = { Update.aggregator_asn = asn 9; sent_at = t; valid = true } in
  let a = announce ~agg:(agg 1.0) "10.0.0.0/24" [ 2 ] in
  let b = announce ~agg:(agg 1.0) "10.0.0.0/24" [ 2 ] in
  let c = announce ~agg:(agg 2.0) "10.0.0.0/24" [ 2 ] in
  Alcotest.(check bool) "same timestamp equal" true (Update.equal a b);
  Alcotest.(check bool) "fresh timestamp differs" false (Update.equal a c)

let qcheck_prefix_roundtrip =
  QCheck.Test.make ~name:"prefix string roundtrip" ~count:300
    QCheck.(pair (int_bound 0xFFFFFF) (int_range 0 32))
    (fun (net, len) ->
      let p = Prefix.make (Int32.of_int (net * 256)) len in
      Prefix.equal p (Prefix.of_string (Prefix.to_string p)))

let suite =
  ( "bgp-types",
    [
      Alcotest.test_case "asn basics" `Quick test_asn_basics;
      Alcotest.test_case "asn invalid" `Quick test_asn_invalid;
      Alcotest.test_case "asn containers" `Quick test_asn_set_map;
      Alcotest.test_case "prefix parse/print" `Quick test_prefix_parse_print;
      Alcotest.test_case "prefix masking" `Quick test_prefix_masking;
      Alcotest.test_case "prefix invalid" `Quick test_prefix_invalid;
      Alcotest.test_case "prefix contains" `Quick test_prefix_contains;
      Alcotest.test_case "prefix unsigned compare" `Quick
        test_prefix_compare_unsigned;
      Alcotest.test_case "beacon allocator" `Quick test_beacon_allocator;
      Alcotest.test_case "path loop check" `Quick test_path_loop_check;
      Alcotest.test_case "update equality vs aggregator" `Quick
        test_update_equal_aggregator;
      QCheck_alcotest.to_alcotest qcheck_prefix_roundtrip;
    ] )

open Because_bgp
module Sc = Because_scenario

let asn = Asn.of_int
let path ints = List.map asn ints

let test_links_of_path () =
  let links = Sc.Report.links_of_path (path [ 3; 1; 2 ]) in
  Alcotest.(check (list (pair int int))) "ordered pairs"
    [ (1, 3); (1, 2) ]
    (List.map (fun (a, b) -> (Asn.to_int a, Asn.to_int b)) links);
  Alcotest.(check (list (pair int int))) "single AS has no links" []
    (List.map (fun (a, b) -> (Asn.to_int a, Asn.to_int b))
       (Sc.Report.links_of_path (path [ 7 ])))

let test_plateau_mass () =
  let deltas = [| 600.0; 620.0; 1800.0; 3600.0; 3660.0 |] in
  Alcotest.(check (float 1e-9)) "10min plateau" 0.4
    (Sc.Report.plateau_mass deltas ~minutes:10.0 ~tolerance:1.0);
  Alcotest.(check (float 1e-9)) "30min plateau" 0.2
    (Sc.Report.plateau_mass deltas ~minutes:30.0 ~tolerance:1.0);
  Alcotest.(check (float 1e-9)) "60min plateau" 0.4
    (Sc.Report.plateau_mass deltas ~minutes:60.0 ~tolerance:1.0);
  Alcotest.(check (float 1e-9)) "empty" 0.0
    (Sc.Report.plateau_mass [||] ~minutes:10.0 ~tolerance:1.0)

let test_link_encode_decode () =
  let link = (asn 1021, asn 300) in
  let node = Because_baselines.Link_tomography.encode link in
  Alcotest.(check bool) "marked as link node" true
    (Because_baselines.Link_tomography.is_link_node node);
  let a, b = Because_baselines.Link_tomography.decode node in
  Alcotest.(check (pair int int)) "roundtrip (ordered)" (300, 1021)
    (Asn.to_int a, Asn.to_int b);
  Alcotest.(check bool) "plain ASN is not a link node" false
    (Because_baselines.Link_tomography.is_link_node (asn 64000));
  Alcotest.(check bool) "oversized endpoint rejected" true
    (try ignore (Because_baselines.Link_tomography.encode (asn 70000, asn 1)); false
     with Invalid_argument _ -> true)

let test_link_observations () =
  let obs = [ (path [ 1; 2; 3 ], true); (path [ 9 ], false) ] in
  match Because_baselines.Link_tomography.observations obs with
  | [ (links, label) ] ->
      Alcotest.(check bool) "label preserved" true label;
      Alcotest.(check int) "two links" 2 (List.length links);
      Alcotest.(check bool) "all link nodes" true
        (List.for_all Because_baselines.Link_tomography.is_link_node links)
  | l -> Alcotest.failf "expected one link path, got %d" (List.length l)

let test_median_incidence () =
  let obs =
    [ (path [ 1; 2 ], false); (path [ 1; 3 ], false); (path [ 1; 4 ], true) ]
  in
  (* AS1 on 3 paths, AS2/3/4 on 1 each: median 1. *)
  Alcotest.(check (float 1e-9)) "median" 1.0
    (Because_baselines.Link_tomography.median_incidence obs)

let suite =
  ( "report",
    [
      Alcotest.test_case "links of path" `Quick test_links_of_path;
      Alcotest.test_case "plateau mass" `Quick test_plateau_mass;
      Alcotest.test_case "link encode/decode" `Quick test_link_encode_decode;
      Alcotest.test_case "link observations" `Quick test_link_observations;
      Alcotest.test_case "median incidence" `Quick test_median_incidence;
    ] )

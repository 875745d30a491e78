open Because_bgp

let asn = Asn.of_int

let test_local_pref_order () =
  Alcotest.(check bool) "customer > peer" true
    (Policy.local_pref Policy.Customer > Policy.local_pref Policy.Peer);
  Alcotest.(check bool) "peer > provider" true
    (Policy.local_pref Policy.Peer > Policy.local_pref Policy.Provider)

let test_flip () =
  Alcotest.(check bool) "customer<->provider" true
    (Policy.relationship_equal (Policy.flip Policy.Customer) Policy.Provider);
  Alcotest.(check bool) "provider<->customer" true
    (Policy.relationship_equal (Policy.flip Policy.Provider) Policy.Customer);
  Alcotest.(check bool) "peer fixed" true
    (Policy.relationship_equal (Policy.flip Policy.Peer) Policy.Peer)

let test_export_valley_free () =
  let ok = Policy.export_ok in
  (* Self-originated: to everyone. *)
  List.iter
    (fun towards ->
      Alcotest.(check bool) "self to all" true (ok ~learned_from:None ~towards))
    [ Policy.Customer; Policy.Peer; Policy.Provider ];
  (* Customer-learned: to everyone. *)
  List.iter
    (fun towards ->
      Alcotest.(check bool) "customer to all" true
        (ok ~learned_from:(Some Policy.Customer) ~towards))
    [ Policy.Customer; Policy.Peer; Policy.Provider ];
  (* Peer-learned: only to customers. *)
  Alcotest.(check bool) "peer to customer" true
    (ok ~learned_from:(Some Policy.Peer) ~towards:Policy.Customer);
  Alcotest.(check bool) "peer to peer" false
    (ok ~learned_from:(Some Policy.Peer) ~towards:Policy.Peer);
  Alcotest.(check bool) "peer to provider" false
    (ok ~learned_from:(Some Policy.Peer) ~towards:Policy.Provider);
  (* Provider-learned: only to customers. *)
  Alcotest.(check bool) "provider to customer" true
    (ok ~learned_from:(Some Policy.Provider) ~towards:Policy.Customer);
  Alcotest.(check bool) "provider to peer" false
    (ok ~learned_from:(Some Policy.Provider) ~towards:Policy.Peer);
  Alcotest.(check bool) "provider to provider" false
    (ok ~learned_from:(Some Policy.Provider) ~towards:Policy.Provider)

let test_rfd_scopes () =
  let applies scope n rel = Policy.rfd_applies scope ~neighbor:(asn n) ~relationship:rel in
  Alcotest.(check bool) "no_rfd" false (applies Policy.No_rfd 1 Policy.Customer);
  Alcotest.(check bool) "all" true (applies Policy.All_neighbors 1 Policy.Provider);
  Alcotest.(check bool) "only customers: customer" true
    (applies Policy.Only_customers 1 Policy.Customer);
  Alcotest.(check bool) "only customers: peer" false
    (applies Policy.Only_customers 1 Policy.Peer);
  let set = Asn.Set.singleton (asn 7) in
  Alcotest.(check bool) "only set: member" true
    (applies (Policy.Only_neighbors set) 7 Policy.Peer);
  Alcotest.(check bool) "only set: other" false
    (applies (Policy.Only_neighbors set) 8 Policy.Peer);
  Alcotest.(check bool) "except: spared" false
    (applies (Policy.All_except set) 7 Policy.Peer);
  Alcotest.(check bool) "except: others" true
    (applies (Policy.All_except set) 8 Policy.Peer)

let suite =
  ( "policy",
    [
      Alcotest.test_case "local pref order" `Quick test_local_pref_order;
      Alcotest.test_case "flip" `Quick test_flip;
      Alcotest.test_case "valley-free export" `Quick test_export_valley_free;
      Alcotest.test_case "rfd scopes" `Quick test_rfd_scopes;
    ] )

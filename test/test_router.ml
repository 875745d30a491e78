open Because_bgp

let asn = Asn.of_int
let prefix = Prefix.of_string "10.0.0.0/24"

let neighbor ?(mrai = 0.0) n relationship =
  { Router.neighbor_asn = asn n; relationship; mrai }

let config ?(rfd_scope = Policy.No_rfd) ?(rfd_params = Rfd_params.cisco) me
    neighbors =
  { Router.asn = asn me; neighbors; rfd_scope; rfd_params }

let announce ?(path = [ 1 ]) ?agg () =
  Update.Announce
    { prefix; as_path = List.map asn path; aggregator = agg }

let withdraw = Update.Withdraw { prefix }

(* The slot of [r]'s session to AS [n]. *)
let from r n = Router.slot r (asn n)

(* Sends as (receiving ASN, update): slot [i] is the [i]-th configured
   neighbor. *)
let sends r actions =
  let nbs = Array.of_list (Router.config r).Router.neighbors in
  List.filter_map
    (function
      | Router.Send { slot; update } ->
          Some (Asn.to_int nbs.(slot).Router.neighbor_asn, update)
      | Router.Set_reuse_timer _ | Router.Set_mrai_timer _ | Router.Feed _ ->
          None)
    actions

let feeds actions =
  List.filter_map
    (function Router.Feed u -> Some u | _ -> None)
    actions

let send_paths r actions =
  List.map
    (fun (to_, u) ->
      (to_, Option.map (List.map Asn.to_int) (Update.as_path u)))
    (sends r actions)

let test_propagation () =
  (* Router 2 with customer 1 (origin side) and provider 3. *)
  let r =
    Router.create
      (config 2 [ neighbor 1 Policy.Customer; neighbor 3 Policy.Provider ])
  in
  let actions = Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ()) in
  Alcotest.(check (list (pair int (option (list int)))))
    "customer route exported to provider with self prepended"
    [ (3, Some [ 2; 1 ]) ]
    (send_paths r actions);
  Alcotest.(check int) "feed emitted" 1 (List.length (feeds actions));
  match Router.best_route r prefix with
  | Some (Router.Via v) ->
      Alcotest.(check int) "best via 1" 1 (Asn.to_int v.from_asn)
  | _ -> Alcotest.fail "no best route"

let test_withdrawal_propagates () =
  let r =
    Router.create
      (config 2 [ neighbor 1 Policy.Customer; neighbor 3 Policy.Provider ])
  in
  ignore (Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ()));
  let actions = Router.handle_update r ~now:1.0 ~slot:(from r 1) withdraw in
  (match sends r actions with
  | [ (3, Update.Withdraw _) ] -> ()
  | _ -> Alcotest.fail "expected withdrawal to 3");
  Alcotest.(check (option reject)) "loc-rib empty"
    None
    (Option.map ignore (Router.best_route r prefix))

let test_spurious_withdrawal_silent () =
  let r = Router.create (config 2 [ neighbor 1 Policy.Customer ]) in
  let actions = Router.handle_update r ~now:0.0 ~slot:(from r 1) withdraw in
  Alcotest.(check int) "nothing sent" 0 (List.length (sends r actions))

let test_decision_prefers_customer () =
  let r =
    Router.create
      (config 5
         [ neighbor 1 Policy.Provider; neighbor 2 Policy.Customer;
           neighbor 6 Policy.Customer ])
  in
  ignore
    (Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ~path:[ 1; 9 ] ()));
  ignore
    (Router.handle_update r ~now:1.0 ~slot:(from r 2)
       (announce ~path:[ 2; 8; 9 ] ()));
  (* Customer route wins despite being longer. *)
  match Router.best_route r prefix with
  | Some (Router.Via v) ->
      Alcotest.(check int) "customer wins" 2 (Asn.to_int v.from_asn)
  | _ -> Alcotest.fail "no best"

let test_decision_prefers_shorter_then_lower_asn () =
  let r =
    Router.create
      (config 5
         [ neighbor 2 Policy.Customer; neighbor 3 Policy.Customer;
           neighbor 4 Policy.Customer ])
  in
  ignore
    (Router.handle_update r ~now:0.0 ~slot:(from r 4)
       (announce ~path:[ 4; 8; 9 ] ()));
  ignore
    (Router.handle_update r ~now:1.0 ~slot:(from r 3) (announce ~path:[ 3; 9 ] ()));
  (match Router.best_route r prefix with
  | Some (Router.Via v) ->
      Alcotest.(check int) "shorter wins" 3 (Asn.to_int v.from_asn)
  | _ -> Alcotest.fail "no best");
  ignore
    (Router.handle_update r ~now:2.0 ~slot:(from r 2) (announce ~path:[ 2; 9 ] ()));
  match Router.best_route r prefix with
  | Some (Router.Via v) ->
      Alcotest.(check int) "lower asn tiebreak" 2 (Asn.to_int v.from_asn)
  | _ -> Alcotest.fail "no best"

let test_split_horizon () =
  let r =
    Router.create
      (config 2 [ neighbor 1 Policy.Customer; neighbor 3 Policy.Customer ])
  in
  let actions = Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ()) in
  Alcotest.(check bool) "never re-advertised to source" true
    (List.for_all (fun (to_, _) -> to_ <> 1) (sends r actions))

let test_valley_free_not_exported () =
  (* Peer-learned route must not go to the provider or another peer. *)
  let r =
    Router.create
      (config 2
         [ neighbor 1 Policy.Peer; neighbor 3 Policy.Provider;
           neighbor 4 Policy.Peer; neighbor 5 Policy.Customer ])
  in
  let actions = Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ()) in
  Alcotest.(check (list (pair int (option (list int)))))
    "only the customer hears a peer route"
    [ (5, Some [ 2; 1 ]) ]
    (send_paths r actions)

let test_loop_rejected () =
  let r = Router.create (config 2 [ neighbor 1 Policy.Customer ]) in
  let actions =
    Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ~path:[ 1; 2; 9 ] ())
  in
  Alcotest.(check int) "nothing sent" 0 (List.length (sends r actions));
  Alcotest.(check bool) "not installed" true
    (Router.best_route r prefix = None)

let test_duplicate_not_resent () =
  let r =
    Router.create
      (config 2 [ neighbor 1 Policy.Customer; neighbor 3 Policy.Provider ])
  in
  ignore (Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ()));
  let again = Router.handle_update r ~now:1.0 ~slot:(from r 1) (announce ()) in
  Alcotest.(check int) "duplicate suppressed" 0 (List.length (sends r again))

let test_fresh_aggregator_resent () =
  let agg t = { Update.aggregator_asn = asn 1; sent_at = t; valid = true } in
  let r =
    Router.create
      (config 2 [ neighbor 1 Policy.Customer; neighbor 3 Policy.Provider ])
  in
  ignore
    (Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ~agg:(agg 0.0) ()));
  let again =
    Router.handle_update r ~now:5.0 ~slot:(from r 1) (announce ~agg:(agg 5.0) ())
  in
  Alcotest.(check int) "fresh beacon timestamp propagates" 1
    (List.length (sends r again))

let test_originate_and_withdraw () =
  let r =
    Router.create
      (config 2 [ neighbor 1 Policy.Provider; neighbor 3 Policy.Peer ])
  in
  let actions = Router.originate r ~now:0.0 prefix in
  Alcotest.(check (list (pair int (option (list int)))))
    "originated everywhere"
    [ (1, Some [ 2 ]); (3, Some [ 2 ]) ]
    (send_paths r actions);
  let actions = Router.withdraw_origin r ~now:1.0 prefix in
  Alcotest.(check int) "withdrawn everywhere" 2 (List.length (sends r actions))

let test_mrai_gates_announcements () =
  let r =
    Router.create
      (config 2
         [ neighbor 1 Policy.Customer; neighbor ~mrai:30.0 3 Policy.Provider ])
  in
  let agg t = { Update.aggregator_asn = asn 1; sent_at = t; valid = true } in
  let first =
    Router.handle_update r ~now:0.0 ~slot:(from r 1) (announce ~agg:(agg 0.0) ())
  in
  Alcotest.(check int) "first goes out" 1 (List.length (sends r first));
  (* A new announcement 5 s later is gated: timer, no send. *)
  let second =
    Router.handle_update r ~now:5.0 ~slot:(from r 1) (announce ~agg:(agg 5.0) ())
  in
  Alcotest.(check int) "gated" 0 (List.length (sends r second));
  let timers =
    List.filter_map
      (function
        | Router.Set_mrai_timer { at; _ } -> Some at
        | _ -> None)
      second
  in
  Alcotest.(check (list (float 0.0))) "timer at gate end" [ 30.0 ] timers;
  (* Withdrawals bypass MRAI. *)
  let w = Router.handle_update r ~now:6.0 ~slot:(from r 1) withdraw in
  (match sends r w with
  | [ (3, Update.Withdraw _) ] -> ()
  | _ -> Alcotest.fail "withdrawal should bypass MRAI");
  (* Re-announce, then flush at timer expiry. *)
  ignore (Router.handle_update r ~now:7.0 ~slot:(from r 1) (announce ~agg:(agg 7.0) ()));
  let flushed = Router.handle_mrai_expiry r ~now:30.0 ~slot:(from r 3) ~prefix in
  Alcotest.(check int) "flushed" 1 (List.length (sends r flushed))

let flap r ~slot k =
  (* k rounds of withdraw+announce one minute apart, returning all actions. *)
  let actions = ref [] in
  for i = 0 to k - 1 do
    let t = float_of_int i *. 120.0 in
    actions := Router.handle_update r ~now:t ~slot withdraw :: !actions;
    actions :=
      Router.handle_update r ~now:(t +. 60.0) ~slot (announce ()) :: !actions
  done;
  List.concat (List.rev !actions)

let test_rfd_suppression_and_release () =
  let r =
    Router.create
      (config ~rfd_scope:Policy.All_neighbors 2
         [ neighbor 1 Policy.Customer; neighbor 3 Policy.Provider ])
  in
  ignore (Router.handle_update r ~now:(-600.0) ~slot:(from r 1) (announce ()));
  let actions = flap r ~slot:(from r 1) 4 in
  (* Suppression must have kicked in. *)
  Alcotest.(check bool) "suppressing" true (Router.is_suppressing r ~now:500.0);
  let reuse_timers =
    List.filter_map
      (function Router.Set_reuse_timer { at; _ } -> Some at | _ -> None)
      actions
  in
  Alcotest.(check bool) "reuse timer armed" true (reuse_timers <> []);
  (* While suppressed the loc-rib ignores the session even though the last
     update was an announcement. *)
  Alcotest.(check bool) "best gone while suppressed" true
    (Router.best_route r prefix = None);
  (* Fire the reuse check once the penalty has decayed. *)
  let state = Option.get (Router.rfd_state r ~slot:(from r 1) ~prefix) in
  let eta = Option.get (Rfd.reuse_eta state ~now:500.0) in
  let released = Router.handle_reuse_check r ~now:(eta +. 1.0) ~slot:(from r 1) ~prefix in
  (match send_paths r released with
  | [ (3, Some [ 2; 1 ]) ] -> ()
  | other ->
      Alcotest.failf "expected delayed re-advertisement, got %d sends"
        (List.length other));
  Alcotest.(check bool) "best restored" true
    (Router.best_route r prefix <> None)

let test_rfd_scope_respected () =
  (* Damping only customers: a peer session flaps freely. *)
  let r =
    Router.create
      (config ~rfd_scope:Policy.Only_customers 2
         [ neighbor 1 Policy.Peer; neighbor 3 Policy.Customer ])
  in
  ignore (flap r ~slot:(from r 1) 6);
  Alcotest.(check bool) "peer session not damped" false
    (Router.is_suppressing r ~now:2000.0)

let test_unknown_neighbor_rejected () =
  let r = Router.create (config 2 [ neighbor 1 Policy.Customer ]) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Router.handle_update r ~now:0.0 ~slot:(from r 9) (announce ()));
       false
     with Invalid_argument _ -> true)

(* One router that hears two prefixes, interleaved, must act step for step
   like two fresh routers that each hear one of them: state is per prefix,
   so no lookup may hand one prefix's row to the other.  Prefix A flaps on
   the customer session until damping suppresses it; prefix B moves between
   the customer and the peer; the provider session's MRAI gates both.  The
   timers the steps arm are fired in time order, like the engine does. *)
let test_two_prefixes_like_two_routers () =
  let cfg =
    config ~rfd_scope:Policy.All_neighbors 2
      [ neighbor 1 Policy.Customer; neighbor 4 Policy.Peer;
        neighbor ~mrai:30.0 3 Policy.Provider ]
  in
  let pa = Prefix.of_string "10.0.0.0/24"
  and pb = Prefix.of_string "10.0.1.0/24" in
  let both = Router.create cfg in
  let alone = [ (pa, Router.create cfg); (pb, Router.create cfg) ] in
  let hear n p path =
    `Hear (n, if path = [] then Update.Withdraw { prefix = p }
              else Update.Announce { prefix = p; as_path = List.map asn path;
                                     aggregator = None })
  in
  let prefix_of = function
    | `Hear (_, u) -> Update.prefix u
    | `Mrai (_, p) | `Reuse (_, p) -> p
  in
  let apply r now = function
    | `Hear (n, u) -> Router.handle_update r ~now ~slot:(from r n) u
    | `Mrai (slot, prefix) -> Router.handle_mrai_expiry r ~now ~slot ~prefix
    | `Reuse (slot, prefix) -> Router.handle_reuse_check r ~now ~slot ~prefix
  in
  let queue =
    ref
      (List.concat
         (List.init 16 (fun k ->
              let t = 20.0 *. float_of_int k in
              let nb = if k mod 3 = 0 then 4 else 1 in
              [ (t, hear 1 pa (if k mod 2 = 0 then [ 1 ] else []));
                (t +. 10.0, hear nb pb (if k mod 4 = 3 then [] else [ nb; 9 ]))
              ])))
  in
  let timers = ref 0 and steps = ref 0 in
  let rec loop () =
    match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !queue with
    | [] -> ()
    | (now, ev) :: rest ->
        queue := rest;
        let got = apply both now ev in
        let want = apply (List.assoc (prefix_of ev) alone) now ev in
        incr steps;
        Alcotest.(check bool)
          (Printf.sprintf "step %d at %g s acts alike" !steps now)
          true (got = want);
        List.iter
          (function
            | Router.Set_mrai_timer { slot; prefix; at } ->
                incr timers;
                queue := !queue @ [ (at, `Mrai (slot, prefix)) ]
            | Router.Set_reuse_timer { slot; prefix; at } ->
                incr timers;
                queue := !queue @ [ (at, `Reuse (slot, prefix)) ]
            | Router.Send _ | Router.Feed _ -> ())
          got;
        loop ()
  in
  loop ();
  Alcotest.(check bool) "timers fired" true (!timers > 0);
  Alcotest.(check bool) "prefix A was damped" true
    ((Router.stats both).Router.rfd_suppressions > 0);
  List.iter
    (fun (p, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "best route for %s" (Prefix.to_string p))
        true
        (Router.best_route both p = Router.best_route r p))
    alone

(* ------------------------------------------------------------------ *)
(* Property: the flattened hot path (dense neighbor ids, interned paths,
   precomputed export bits) pins to a naive reference on random inputs.  *)

module Rng = Because_stats.Rng

(* Reference Gao–Rexford selection over a mirror adj-RIB-in kept as an
   assoc list: highest local-pref, shortest path, lowest neighbor ASN. *)
let reference_best neighbors rib =
  List.fold_left
    (fun acc (n : Router.neighbor) ->
      match List.assoc_opt n.Router.neighbor_asn rib with
      | None -> acc
      | Some path ->
          let pref = Policy.local_pref n.Router.relationship in
          let len = List.length path in
          let better =
            match acc with
            | None -> true
            | Some (_, i_pref, i_len, i_asn) ->
                if pref <> i_pref then pref > i_pref
                else if len <> i_len then len < i_len
                else Asn.compare n.Router.neighbor_asn i_asn < 0
          in
          if better then Some ((n, path), pref, len, n.Router.neighbor_asn)
          else acc)
    None neighbors
  |> Option.map (fun (winner, _, _, _) -> winner)

let qcheck_decide_matches_reference =
  QCheck.Test.make ~name:"flattened decide/export pins to reference"
    ~count:200 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let n_neighbors = 2 + Rng.int rng 6 in
      let rels = [| Policy.Customer; Policy.Peer; Policy.Provider |] in
      let neighbors =
        List.init n_neighbors (fun i ->
            { Router.neighbor_asn = asn (10 + i);
              relationship = rels.(Rng.int rng 3);
              mrai = 0.0 })
      in
      let r = Router.create (config 2 neighbors) in
      let rib = ref [] in
      for step = 1 to 40 do
        let n = List.nth neighbors (Rng.int rng n_neighbors) in
        let from = n.Router.neighbor_asn in
        let now = float_of_int step in
        let update =
          if Rng.float rng < 0.3 then Update.Withdraw { prefix }
          else begin
            let len = 1 + Rng.int rng 4 in
            let path =
              from :: List.init len (fun i -> asn (100 + Rng.int rng 20 + i))
            in
            Update.Announce { prefix; as_path = path; aggregator = None }
          end
        in
        let actions = Router.handle_update r ~now ~slot:(Router.slot r from) update in
        (rib :=
           match update with
           | Update.Withdraw _ -> List.remove_assoc from !rib
           | Update.Announce { as_path; _ } ->
               (from, as_path) :: List.remove_assoc from !rib);
        (* 1. Best route must match the reference selection. *)
        (match (Router.best_route r prefix, reference_best neighbors !rib) with
        | None, None -> ()
        | Some (Router.Via v), Some (n, path) ->
            if not (Asn.equal v.from_asn n.Router.neighbor_asn) then
              Alcotest.failf "seed %d step %d: best via %a, reference %a" seed
                step Asn.pp v.from_asn Asn.pp n.Router.neighbor_asn;
            Alcotest.(check (list int))
              "best path" (List.map Asn.to_int path)
              (List.map Asn.to_int (Apath.nodes v.as_path))
        | Some (Router.Origin _), _ ->
            Alcotest.fail "origin without originate"
        | Some (Router.Via _), None | None, Some _ ->
            Alcotest.failf "seed %d step %d: best-route presence mismatch"
              seed step);
        (* 2. Every Send must satisfy valley-free export and split horizon
           (the precomputed per-(relationship, neighbor) bits). *)
        List.iter
          (fun (to_, u) ->
            match (Router.best_route r prefix, u) with
            | Some (Router.Via v), Update.Announce _ ->
                let towards =
                  List.find
                    (fun (m : Router.neighbor) ->
                      Asn.to_int m.Router.neighbor_asn = to_)
                    neighbors
                in
                if Asn.to_int v.from_asn = to_ then
                  Alcotest.failf "seed %d step %d: split horizon violated"
                    seed step;
                if
                  not
                    (Policy.export_ok
                       ~learned_from:(Some v.relationship)
                       ~towards:towards.Router.relationship)
                then
                  Alcotest.failf "seed %d step %d: valley-free violated" seed
                    step
            | _ -> ())
          (sends r actions)
      done;
      true)

let qcheck_session_down_equals_withdrawals =
  QCheck.Test.make
    ~name:"session down == withdrawing every route of that session" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 77) in
      let neighbors =
        [ neighbor 10 Policy.Customer; neighbor 11 Policy.Peer;
          neighbor 12 Policy.Provider ]
      in
      let prefixes =
        [ Prefix.of_string "10.0.0.0/24"; Prefix.of_string "10.0.1.0/24";
          Prefix.of_string "10.0.2.0/24" ]
      in
      (* One random update sequence, replayed into both routers. *)
      let updates =
        List.concat_map
          (fun p ->
            List.filter_map
              (fun (n : Router.neighbor) ->
                if Rng.float rng < 0.7 then
                  Some
                    ( n.Router.neighbor_asn,
                      Update.Announce
                        { prefix = p;
                          as_path =
                            [ n.Router.neighbor_asn;
                              asn (100 + Rng.int rng 5) ];
                          aggregator = None } )
                else None)
              neighbors)
          prefixes
      in
      let r_down = Router.create (config 2 neighbors) in
      let r_wdr = Router.create (config 2 neighbors) in
      List.iter
        (fun (from, u) ->
          ignore
            (Router.handle_update r_down ~now:1.0
               ~slot:(Router.slot r_down from) u);
          ignore
            (Router.handle_update r_wdr ~now:1.0
               ~slot:(Router.slot r_wdr from) u))
        updates;
      (* Tear down AS10's session on one router and explicitly withdraw its
         routes on the other: loc-RIBs must agree on every prefix. *)
      ignore (Router.handle_session_down r_down ~now:2.0 ~slot:(from r_down 10));
      List.iter
        (fun p ->
          ignore
            (Router.handle_update r_wdr ~now:2.0 ~slot:(from r_wdr 10)
               (Update.Withdraw { prefix = p })))
        prefixes;
      List.for_all
        (fun p ->
          match (Router.best_route r_down p, Router.best_route r_wdr p) with
          | None, None -> true
          | Some (Router.Via a), Some (Router.Via b) ->
              Asn.equal a.from_asn b.from_asn
              && Apath.equal a.as_path b.as_path
          | _ -> false)
        prefixes)

let suite =
  ( "router",
    [
      QCheck_alcotest.to_alcotest qcheck_decide_matches_reference;
      QCheck_alcotest.to_alcotest qcheck_session_down_equals_withdrawals;
      Alcotest.test_case "propagation" `Quick test_propagation;
      Alcotest.test_case "withdrawal propagates" `Quick test_withdrawal_propagates;
      Alcotest.test_case "spurious withdrawal silent" `Quick
        test_spurious_withdrawal_silent;
      Alcotest.test_case "customer preferred" `Quick test_decision_prefers_customer;
      Alcotest.test_case "path length then ASN" `Quick
        test_decision_prefers_shorter_then_lower_asn;
      Alcotest.test_case "split horizon" `Quick test_split_horizon;
      Alcotest.test_case "valley-free export" `Quick test_valley_free_not_exported;
      Alcotest.test_case "loop rejected" `Quick test_loop_rejected;
      Alcotest.test_case "duplicate not resent" `Quick test_duplicate_not_resent;
      Alcotest.test_case "fresh aggregator resent" `Quick
        test_fresh_aggregator_resent;
      Alcotest.test_case "originate/withdraw" `Quick test_originate_and_withdraw;
      Alcotest.test_case "MRAI gating" `Quick test_mrai_gates_announcements;
      Alcotest.test_case "RFD suppression and release" `Quick
        test_rfd_suppression_and_release;
      Alcotest.test_case "RFD scope respected" `Quick test_rfd_scope_respected;
      Alcotest.test_case "unknown neighbor" `Quick test_unknown_neighbor_rejected;
      Alcotest.test_case "two prefixes act like two routers" `Quick
        test_two_prefixes_like_two_routers;
    ] )

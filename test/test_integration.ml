(* End-to-end: hand-built micro-worlds through simulation, collection,
   labeling and inference, where the expected outcome is exactly known. *)
open Because_bgp
module Network = Because_sim.Network
module Schedule = Because_beacon.Schedule
module Site = Because_beacon.Site
module Vantage = Because_collector.Vantage
module Dump = Because_collector.Dump
module Noise = Because_collector.Noise
module Label = Because_labeling.Label
module Rng = Because_stats.Rng

let asn = Asn.of_int

(* Topology:  origin 65001 — 2 — 3 — 4(vp)
                              \— 5 — 4
   AS3 damps; AS5 is the clean alternative transit.  AS4 hosts the VP and
   prefers AS3 (lower ASN) when available. *)
let configs ~damper_scope =
  let nb ?(mrai = 0.0) n rel = { Router.neighbor_asn = asn n; relationship = rel; mrai } in
  [
    { Router.asn = asn 65001;
      neighbors = [ nb 2 Policy.Provider ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 2;
      neighbors = [ nb 65001 Policy.Customer; nb 3 Policy.Provider; nb 5 Policy.Provider ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 3;
      neighbors = [ nb 2 Policy.Customer; nb 4 Policy.Customer ];
      rfd_scope = damper_scope; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 5;
      neighbors = [ nb 2 Policy.Customer; nb 4 Policy.Customer ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    { Router.asn = asn 4;
      neighbors = [ nb 3 Policy.Provider; nb 5 Policy.Provider ];
      rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
  ]

let schedule =
  Schedule.two_phase ~start:0.0 ~lead_in:900.0 ~update_interval:60.0 ~flaps:30
    ~break_duration:7200.0 ~cycles:2 ()

let run_micro_world ~damper_scope =
  let net =
    Network.create ~configs:(configs ~damper_scope)
      ~delay:(fun ~from_asn:_ ~to_asn:_ -> 1.0)
      ~monitored:(Asn.Set.singleton (asn 4)) ()
  in
  let site =
    Site.make ~site_id:0 ~origin:(asn 65001) ~anchor_period:7200.0
      ~anchor_cycles:3 ~oscillating:[ schedule ] ()
  in
  let script = Because_sim.Script.create () in
  Site.install site script;
  Because_sim.Script.install script net;
  let campaign_end = Schedule.end_time schedule +. 7200.0 in
  Network.run net ~until:campaign_end;
  let vp = Vantage.make ~vp_id:0 ~host_asn:(asn 4) ~project:Because_collector.Project.Isolario in
  let records =
    Dump.of_feeds (Rng.create 1) ~feed_of:(Network.feed net)
      ~vantages:[ vp ] ~noise:Noise.none ~campaign_end ()
  in
  let osc = Option.get (Site.oscillating_prefix site ~interval:60.0) in
  let windows_of p =
    if Prefix.equal p osc then Schedule.windows schedule else []
  in
  Label.label_all ~records ~windows_of ()

let path_ints lp = List.map Asn.to_int lp.Label.path

let test_damped_world () =
  let labeled = run_micro_world ~damper_scope:Policy.All_neighbors in
  let damped = List.filter (fun lp -> lp.Label.rfd) labeled in
  let clean = List.filter (fun lp -> not lp.Label.rfd) labeled in
  (match damped with
  | [ lp ] ->
      Alcotest.(check (list int)) "damped path goes through AS3"
        [ 4; 3; 2; 65001 ] (path_ints lp);
      Alcotest.(check bool) "every pair matched" true
        (lp.Label.matched_pairs = lp.Label.total_pairs);
      (* r-delta ≈ Cisco decay from suppression: >20 minutes *)
      (match lp.Label.mean_r_delta with
      | Some d ->
          Alcotest.(check bool)
            (Printf.sprintf "r-delta ≈ Cisco release (%.0fs)" d)
            true
            (d > 1000.0 && d < 3600.0)
      | None -> Alcotest.fail "no r-delta")
  | l -> Alcotest.failf "expected one damped path, got %d" (List.length l));
  (* The failover path via AS5 must be observed and clean. *)
  Alcotest.(check bool) "alternative path observed clean" true
    (List.exists (fun lp -> path_ints lp = [ 4; 5; 2; 65001 ]) clean)

let test_clean_world () =
  let labeled = run_micro_world ~damper_scope:Policy.No_rfd in
  Alcotest.(check bool) "paths observed" true (labeled <> []);
  List.iter
    (fun lp ->
      Alcotest.(check bool) "nothing damped" false lp.Label.rfd)
    labeled

let test_damper_scoped_away () =
  (* AS3 damps only customers; it learns the beacon from AS2, its customer —
     so the beacon flaps are damped.  Scope it to damp only the session to
     AS4 instead (not a session it learns the prefix on): nothing damps. *)
  let labeled =
    run_micro_world
      ~damper_scope:(Policy.Only_neighbors (Asn.Set.singleton (asn 4)))
  in
  List.iter
    (fun lp -> Alcotest.(check bool) "wrong session scoped" false lp.Label.rfd)
    labeled

let test_full_pipeline_inference () =
  let labeled = run_micro_world ~damper_scope:Policy.All_neighbors in
  (* Replicate the single vantage point's evidence a few times (as multiple
     cycles/vantage points would) so the posterior concentrates. *)
  let observations =
    List.concat (List.init 6 (fun _ -> Label.observations labeled))
  in
  let data = Because.Tomography.of_observations observations in
  let config =
    { Because.Infer.default_config with
      n_samples = 500; burn_in = 300;
      node_priors = [ (asn 65001, Because.Prior.Near_zero) ] }
  in
  let result = Because.Infer.run ~rng:(Rng.create 7) ~config data in
  let categories = Because.Pinpoint.assign_with_pinpointing result in
  let damping = Because.Evaluate.damping_set categories in
  Alcotest.(check (list int)) "exactly AS3 flagged" [ 3 ]
    (List.map Asn.to_int (Asn.Set.elements damping))

let suite =
  ( "integration",
    [
      Alcotest.test_case "damped micro-world" `Slow test_damped_world;
      Alcotest.test_case "clean micro-world" `Slow test_clean_world;
      Alcotest.test_case "scope excludes session" `Slow test_damper_scoped_away;
      Alcotest.test_case "full pipeline flags the damper" `Slow
        test_full_pipeline_inference;
    ] )

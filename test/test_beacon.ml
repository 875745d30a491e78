module Schedule = Because_beacon.Schedule
module Site = Because_beacon.Site
open Because_bgp

let two_phase () =
  Schedule.two_phase ~start:0.0 ~lead_in:600.0 ~update_interval:60.0 ~flaps:3
    ~break_duration:1800.0 ~cycles:2 ()

let test_events_shape () =
  let events = Schedule.events (two_phase ()) in
  (* initial announce + 2 cycles × 3 flaps × 2 events *)
  Alcotest.(check int) "count" 13 (List.length events);
  (match events with
  | (t0, Schedule.Announce) :: (t1, Schedule.Withdraw) :: _ ->
      Alcotest.(check (float 0.0)) "initial announce at start" 0.0 t0;
      Alcotest.(check (float 0.0)) "burst opens with withdrawal" 600.0 t1
  | _ -> Alcotest.fail "unexpected prefix of events");
  (* chronological, and every burst ends with an announcement *)
  let rec monotone = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (monotone events)

let test_burst_ends_with_announce () =
  let s = two_phase () in
  List.iter
    (fun (bs, be, _) ->
      let in_burst =
        List.filter (fun (t, _) -> t >= bs && t <= be) (Schedule.events s)
      in
      match List.rev in_burst with
      | (t, Schedule.Announce) :: _ ->
          Alcotest.(check (float 1e-9)) "last event at burst end" be t
      | _ -> Alcotest.fail "burst must end with an announcement")
    (Schedule.windows s)

let test_windows () =
  let s = two_phase () in
  let windows = Schedule.windows s in
  Alcotest.(check int) "one per cycle" 2 (List.length windows);
  match windows with
  | (bs, be, bend) :: _ ->
      Alcotest.(check (float 0.0)) "burst start" 600.0 bs;
      (* (2·3−1)·60 = 300 s of burst *)
      Alcotest.(check (float 0.0)) "burst end" 900.0 be;
      Alcotest.(check (float 0.0)) "break end" 2700.0 bend
  | [] -> Alcotest.fail "no windows"

let test_of_durations_flaps () =
  let s =
    Schedule.of_durations ~update_interval:60.0 ~burst_duration:7200.0
      ~break_duration:7200.0 ~cycles:1 ()
  in
  (* 2h / (2·1min) = 60 flaps: a burst of (2·60−1)·60 s. *)
  match Schedule.windows s with
  | [ (bs, be, _) ] ->
      Alcotest.(check (float 0.0)) "2h / (2·1min)" 7140.0 (be -. bs)
  | _ -> Alcotest.fail "expected one window"

let test_ripe_style () =
  let s = Schedule.ripe_style ~period:7200.0 ~cycles:3 () in
  let events = Schedule.events s in
  Alcotest.(check int) "3 announce/withdraw rounds" 6 (List.length events);
  let kinds = List.map snd events in
  Alcotest.(check bool) "alternates" true
    (kinds
    = [ Schedule.Announce; Schedule.Withdraw; Schedule.Announce;
        Schedule.Withdraw; Schedule.Announce; Schedule.Withdraw ]);
  Alcotest.(check (float 0.0)) "end time" (5.0 *. 7200.0) (Schedule.end_time s)

let test_invalid_schedules () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero interval" true
    (bad (fun () ->
         Schedule.two_phase ~update_interval:0.0 ~flaps:1 ~break_duration:1.0
           ~cycles:1 ()));
  Alcotest.(check bool) "zero flaps" true
    (bad (fun () ->
         Schedule.two_phase ~update_interval:1.0 ~flaps:0 ~break_duration:1.0
           ~cycles:1 ()))

let test_site_layout () =
  let site =
    Site.make ~site_id:2 ~origin:(Asn.of_int 65003) ~anchor_period:7200.0
      ~oscillating:[ two_phase (); two_phase () ] ()
  in
  Alcotest.(check int) "anchor + 2 oscillating" 3 (List.length site.Site.prefixes);
  (match Site.anchor_prefix site with
  | Some p -> Alcotest.(check string) "anchor slot 0" "10.2.0.0/24" (Prefix.to_string p)
  | None -> Alcotest.fail "no anchor");
  match Site.oscillating_prefix site ~interval:60.0 with
  | Some p -> Alcotest.(check string) "slot 1" "10.2.1.0/24" (Prefix.to_string p)
  | None -> Alcotest.fail "no oscillating prefix"

let test_site_install () =
  let asn = Asn.of_int in
  let configs =
    [
      { Router.asn = asn 65003;
        neighbors = [ { Router.neighbor_asn = asn 2; relationship = Policy.Provider; mrai = 0.0 } ];
        rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
      { Router.asn = asn 2;
        neighbors = [ { Router.neighbor_asn = asn 65003; relationship = Policy.Customer; mrai = 0.0 } ];
        rfd_scope = Policy.No_rfd; rfd_params = Rfd_params.cisco };
    ]
  in
  let net =
    Because_sim.Network.create ~configs
      ~delay:(fun ~from_asn:_ ~to_asn:_ -> 0.5)
      ~monitored:(Asn.Set.singleton (asn 2)) ()
  in
  let site =
    Site.make ~site_id:0 ~origin:(asn 65003) ~anchor_period:7200.0
      ~anchor_cycles:1 ~oscillating:[ two_phase () ] ()
  in
  let script = Because_sim.Script.create () in
  Site.install site script;
  Because_sim.Script.install script net;
  Because_sim.Network.run net ~until:(Site.end_time site +. 10.0);
  let feed = Because_sim.Network.feed net (asn 2) in
  Alcotest.(check bool) "events observed" true (List.length feed > 10)

let suite =
  ( "beacon",
    [
      Alcotest.test_case "event shape" `Quick test_events_shape;
      Alcotest.test_case "burst ends with announce" `Quick
        test_burst_ends_with_announce;
      Alcotest.test_case "windows" `Quick test_windows;
      Alcotest.test_case "of_durations flaps" `Quick test_of_durations_flaps;
      Alcotest.test_case "ripe style" `Quick test_ripe_style;
      Alcotest.test_case "invalid schedules" `Quick test_invalid_schedules;
      Alcotest.test_case "site layout" `Quick test_site_layout;
      Alcotest.test_case "site install" `Quick test_site_install;
    ] )

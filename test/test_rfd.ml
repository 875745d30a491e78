(* Rfd_params and the Rfd penalty engine. *)
open Because_bgp

let minutes m = m *. 60.0

let test_vendor_presets () =
  (* Appendix B of the paper. *)
  let check name (p : Rfd_params.t) suppress readv =
    Alcotest.(check (float 0.0)) (name ^ " withdrawal") 1000.0 p.withdrawal_penalty;
    Alcotest.(check (float 0.0)) (name ^ " attr change") 500.0 p.attribute_change_penalty;
    Alcotest.(check (float 0.0)) (name ^ " suppress") suppress p.suppress_threshold;
    Alcotest.(check (float 0.0)) (name ^ " readv") readv p.readvertisement_penalty;
    Alcotest.(check (float 0.0)) (name ^ " half-life") (minutes 15.0) p.half_life;
    Alcotest.(check (float 0.0)) (name ^ " reuse") 750.0 p.reuse_threshold;
    Alcotest.(check (float 0.0)) (name ^ " max-suppress") (minutes 60.0) p.max_suppress_time
  in
  check "cisco" Rfd_params.cisco 2000.0 0.0;
  check "juniper" Rfd_params.juniper 3000.0 1000.0;
  check "rfc7454" Rfd_params.rfc7454 6000.0 1000.0

let test_penalty_ceiling () =
  (* reuse · 2^(60/15) = 750 · 16 = 12000 *)
  Alcotest.(check (float 1e-9)) "default ceiling" 12000.0
    (Rfd_params.penalty_ceiling Rfd_params.cisco)

let test_flaps_to_suppress () =
  Alcotest.(check int) "cisco" 2 (Rfd_params.flaps_to_suppress Rfd_params.cisco);
  Alcotest.(check int) "juniper" 2 (Rfd_params.flaps_to_suppress Rfd_params.juniper);
  Alcotest.(check int) "rfc7454" 3 (Rfd_params.flaps_to_suppress Rfd_params.rfc7454)

let test_penalty_accumulates () =
  let s = Rfd.create Rfd_params.cisco in
  Rfd.record s ~now:0.0 Rfd.Withdrawal;
  Alcotest.(check (float 1e-9)) "one withdrawal" 1000.0 (Rfd.penalty s ~now:0.0);
  Rfd.record s ~now:0.0 Rfd.Readvertisement;
  Alcotest.(check (float 1e-9)) "cisco free readvertisement" 1000.0
    (Rfd.penalty s ~now:0.0);
  Rfd.record s ~now:0.0 Rfd.Attribute_change;
  Alcotest.(check (float 1e-9)) "attribute change" 1500.0 (Rfd.penalty s ~now:0.0)

let test_penalty_decays_half_life () =
  let s = Rfd.create Rfd_params.cisco in
  Rfd.record s ~now:0.0 Rfd.Withdrawal;
  Alcotest.(check (float 1.0)) "after one half-life" 500.0
    (Rfd.penalty s ~now:(minutes 15.0));
  Alcotest.(check (float 1.0)) "after two half-lives" 250.0
    (Rfd.penalty s ~now:(minutes 30.0))

let test_suppression_trigger () =
  let s = Rfd.create Rfd_params.cisco in
  (* Cisco: suppress once penalty exceeds 2000 — third rapid withdrawal. *)
  Rfd.record s ~now:0.0 Rfd.Withdrawal;
  Alcotest.(check bool) "not yet (1000)" false (Rfd.suppressed s ~now:0.0);
  Rfd.record s ~now:60.0 Rfd.Withdrawal;
  Alcotest.(check bool) "not yet (just under 2000)" false
    (Rfd.suppressed s ~now:60.0);
  Rfd.record s ~now:120.0 Rfd.Withdrawal;
  Alcotest.(check bool) "suppressed" true (Rfd.suppressed s ~now:120.0);
  Alcotest.(check (float 0.0)) "since" 120.0
    (Option.get (Rfd.suppression_started s))

let test_release_by_decay () =
  let s = Rfd.create Rfd_params.cisco in
  Rfd.record s ~now:0.0 Rfd.Withdrawal;
  Rfd.record s ~now:30.0 Rfd.Withdrawal;
  Rfd.record s ~now:60.0 Rfd.Withdrawal;
  Alcotest.(check bool) "suppressed" true (Rfd.suppressed s ~now:60.0);
  let eta = Option.get (Rfd.reuse_eta s ~now:60.0) in
  (* penalty ≈ 2950 at t=60; decay to 750 takes 15·log2(2950/750) ≈ 29.6 min *)
  Alcotest.(check bool)
    (Printf.sprintf "eta plausible (%.0f)" eta)
    true
    (eta > minutes 25.0 && eta < minutes 35.0);
  Alcotest.(check bool) "still suppressed just before" true
    (Rfd.suppressed s ~now:(eta -. 10.0));
  Alcotest.(check bool) "released at eta" false
    (Rfd.suppressed s ~now:(eta +. 1.0));
  Alcotest.(check bool) "penalty at eta is reuse" true
    (Float.abs (Rfd.penalty s ~now:eta -. 750.0) < 5.0)

let test_ceiling_bounds_suppression () =
  let s = Rfd.create Rfd_params.cisco in
  (* A long rapid burst pushes the penalty to the ceiling. *)
  for i = 0 to 119 do
    Rfd.record s ~now:(float_of_int i *. 60.0) Rfd.Withdrawal
  done;
  let burst_end = 119.0 *. 60.0 in
  Alcotest.(check (float 1.0)) "capped at ceiling" 12000.0
    (Rfd.penalty s ~now:burst_end);
  (* From the ceiling, release comes exactly max-suppress-time later. *)
  let eta = Option.get (Rfd.reuse_eta s ~now:burst_end) in
  Alcotest.(check bool)
    (Printf.sprintf "release after max-suppress (%.1f min)"
       ((eta -. burst_end) /. 60.0))
    true
    (Float.abs (eta -. burst_end -. minutes 60.0) < 1.0)

let test_slow_flapping_no_suppression () =
  let s = Rfd.create Rfd_params.cisco in
  (* Withdrawal every 30 minutes decays faster than it accumulates. *)
  for i = 0 to 19 do
    Rfd.record s ~now:(float_of_int i *. minutes 30.0) Rfd.Withdrawal
  done;
  Alcotest.(check bool) "never suppressed" false
    (Rfd.suppressed s ~now:(minutes 600.0))

let test_cisco_damps_5min_interval () =
  (* Fig. 12: deprecated defaults start damping at a 5-minute update
     interval (W and A alternating 5 minutes apart). *)
  let s = Rfd.create Rfd_params.cisco in
  let tripped = ref false in
  for round = 0 to 11 do
    let t = float_of_int round *. minutes 10.0 in
    Rfd.record s ~now:t Rfd.Withdrawal;
    Rfd.record s ~now:(t +. minutes 5.0) Rfd.Readvertisement;
    if Rfd.suppressed s ~now:(t +. minutes 5.0) then tripped := true
  done;
  Alcotest.(check bool) "trips at 5-minute interval" true !tripped

let test_cisco_ignores_10min_interval () =
  let s = Rfd.create Rfd_params.cisco in
  let tripped = ref false in
  for round = 0 to 11 do
    let t = float_of_int round *. minutes 20.0 in
    Rfd.record s ~now:t Rfd.Withdrawal;
    Rfd.record s ~now:(t +. minutes 10.0) Rfd.Readvertisement;
    if Rfd.suppressed s ~now:(t +. minutes 10.0) then tripped := true
  done;
  Alcotest.(check bool) "quiet at 10-minute interval" false !tripped

let test_rfc7454_needs_fast_flapping () =
  (* Recommended parameters damp at a 2-minute interval but not at 5. *)
  let trip interval =
    let s = Rfd.create Rfd_params.rfc7454 in
    let tripped = ref false in
    for k = 0 to 59 do
      let t = float_of_int k *. 2.0 *. interval in
      Rfd.record s ~now:t Rfd.Withdrawal;
      Rfd.record s ~now:(t +. interval) Rfd.Readvertisement;
      if Rfd.suppressed s ~now:(t +. interval) then tripped := true
    done;
    !tripped
  in
  Alcotest.(check bool) "2-minute interval trips" true (trip (minutes 2.0));
  Alcotest.(check bool) "5-minute interval quiet" false (trip (minutes 5.0))

let test_timer_based_suppression () =
  (* Junos-style: an explicit timer releases the route max-suppress-time
     after the suppression began, even while it keeps flapping; the next
     flap re-suppresses it. *)
  let params =
    { Rfd_params.cisco with
      Rfd_params.timer_based_suppression = true;
      max_suppress_time = minutes 10.0 }
  in
  let s = Rfd.create params in
  Rfd.record s ~now:0.0 Rfd.Withdrawal;
  Rfd.record s ~now:30.0 Rfd.Withdrawal;
  Rfd.record s ~now:60.0 Rfd.Withdrawal;
  Alcotest.(check bool) "suppressed" true (Rfd.suppressed s ~now:60.0);
  Alcotest.(check (option (float 1.0))) "timer bounds the eta"
    (Some (60.0 +. minutes 10.0))
    (Rfd.reuse_eta s ~now:60.0);
  (* Released by the timer although the penalty is still above reuse. *)
  let release = 60.0 +. minutes 10.0 in
  Alcotest.(check bool) "released at timer" false
    (Rfd.suppressed s ~now:(release +. 1.0));
  Alcotest.(check bool) "penalty still high" true
    (Rfd.penalty s ~now:(release +. 1.0) > params.Rfd_params.reuse_threshold);
  (* The next flap re-suppresses immediately (penalty above threshold). *)
  Rfd.record s ~now:(release +. 60.0) Rfd.Withdrawal;
  Alcotest.(check bool) "re-suppressed" true
    (Rfd.suppressed s ~now:(release +. 60.0));
  Alcotest.(check (float 0.0)) "new epoch start" (release +. 60.0)
    (Option.get (Rfd.suppression_started s))

let qcheck_penalty_invariants =
  QCheck.Test.make ~name:"penalty stays within [0, ceiling]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (pair (float_range 0.0 7200.0) (int_bound 2)))
    (fun events ->
      let s = Rfd.create Rfd_params.cisco in
      let sorted =
        List.sort (fun (a, _) (b, _) -> Float.compare a b) events
      in
      List.iter
        (fun (t, kind) ->
          let event =
            match kind with
            | 0 -> Rfd.Withdrawal
            | 1 -> Rfd.Readvertisement
            | _ -> Rfd.Attribute_change
          in
          Rfd.record s ~now:t event)
        sorted;
      let p = Rfd.penalty s ~now:7200.0 in
      p >= 0.0 && p <= Rfd_params.penalty_ceiling Rfd_params.cisco +. 1e-6)

let qcheck_release_monotone =
  QCheck.Test.make ~name:"once released by decay, stays released" ~count:100
    QCheck.(pair (int_range 3 20) (float_range 30.0 120.0))
    (fun (n, gap) ->
      let s = Rfd.create Rfd_params.cisco in
      for i = 0 to n - 1 do
        Rfd.record s ~now:(float_of_int i *. gap) Rfd.Withdrawal
      done;
      let last = float_of_int (n - 1) *. gap in
      match Rfd.reuse_eta s ~now:last with
      | None -> true
      | Some eta ->
          (not (Rfd.suppressed s ~now:(eta +. 1.0)))
          && not (Rfd.suppressed s ~now:(eta +. 7200.0)))

let suite =
  ( "rfd",
    [
      Alcotest.test_case "vendor presets (Appendix B)" `Quick test_vendor_presets;
      Alcotest.test_case "penalty ceiling" `Quick test_penalty_ceiling;
      Alcotest.test_case "flaps to suppress" `Quick test_flaps_to_suppress;
      Alcotest.test_case "penalty accumulates" `Quick test_penalty_accumulates;
      Alcotest.test_case "half-life decay" `Quick test_penalty_decays_half_life;
      Alcotest.test_case "suppression trigger" `Quick test_suppression_trigger;
      Alcotest.test_case "release by decay" `Quick test_release_by_decay;
      Alcotest.test_case "ceiling bounds suppression" `Quick
        test_ceiling_bounds_suppression;
      Alcotest.test_case "slow flapping stays clean" `Quick
        test_slow_flapping_no_suppression;
      Alcotest.test_case "cisco damps 5-min interval" `Quick
        test_cisco_damps_5min_interval;
      Alcotest.test_case "cisco ignores 10-min interval" `Quick
        test_cisco_ignores_10min_interval;
      Alcotest.test_case "rfc7454 needs fast flapping" `Quick
        test_rfc7454_needs_fast_flapping;
      Alcotest.test_case "timer-based suppression" `Quick
        test_timer_based_suppression;
      QCheck_alcotest.to_alcotest qcheck_penalty_invariants;
      QCheck_alcotest.to_alcotest qcheck_release_monotone;
    ] )

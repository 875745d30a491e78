module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Summary = Because_stats.Summary
module Target = Because_mcmc.Target
module Chain = Because_mcmc.Chain
module Metropolis = Because_mcmc.Metropolis
module Hmc = Because_mcmc.Hmc
module Gibbs = Because_mcmc.Gibbs
module Diagnostics = Because_mcmc.Diagnostics

let close msg expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.4f, got %.4f)" msg expected actual)
    true
    (Float.abs (expected -. actual) < tol)

(* A 2-d Gaussian target on ℝ² with means (1, −2) and σ = (1, 0.5). *)
let gaussian_target =
  let mu = [| 1.0; -2.0 |] and sigma = [| 1.0; 0.5 |] in
  Target.create ~dim:2 ~support:Target.Unbounded
    ~grad:(fun p ->
      Array.init 2 (fun i -> -.(p.(i) -. mu.(i)) /. (sigma.(i) *. sigma.(i))))
    (fun p ->
      let acc = ref 0.0 in
      for i = 0 to 1 do
        let z = (p.(i) -. mu.(i)) /. sigma.(i) in
        acc := !acc -. (0.5 *. z *. z)
      done;
      !acc)

(* Independent Beta(3,2) × Beta(2,5) target on the unit box. *)
let beta_target =
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

let test_gradient_check () =
  match
    Target.check_gradient gaussian_target ~at:[| 0.3; -1.0 |] ~eps:1e-5
      ~tol:1e-4
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_gradient_check_detects_error () =
  let bad =
    Target.create ~dim:1 ~support:Target.Unbounded
      ~grad:(fun _ -> [| 42.0 |])
      (fun p -> -.(p.(0) *. p.(0)))
  in
  match Target.check_gradient bad ~at:[| 1.0 |] ~eps:1e-5 ~tol:1e-4 with
  | Ok () -> Alcotest.fail "bogus gradient accepted"
  | Error _ -> ()

let test_with_coordinate () =
  let p = [| 1.0; 2.0 |] in
  let p' = Target.with_coordinate p 1 9.0 in
  Alcotest.(check (float 0.0)) "updated" 9.0 p'.(1);
  Alcotest.(check (float 0.0)) "original intact" 2.0 p.(1)

let run_and_check_moments name chain =
  let m0 = Chain.marginal chain 0 and m1 = Chain.marginal chain 1 in
  close (name ^ " mean0") 1.0 (Summary.mean m0) 0.15;
  close (name ^ " mean1") (-2.0) (Summary.mean m1) 0.1;
  close (name ^ " sd0") 1.0 (Summary.std m0) 0.15;
  close (name ^ " sd1") 0.5 (Summary.std m1) 0.1

let test_mh_single_site_gaussian () =
  let rng = Rng.create 101 in
  let r =
    Metropolis.run_single_site ~rng ~n_samples:4000 ~burn_in:1000
      gaussian_target
  in
  run_and_check_moments "mh" r.Metropolis.chain;
  Alcotest.(check bool) "acceptance sane" true
    (r.Metropolis.acceptance > 0.15 && r.Metropolis.acceptance < 0.85)

let test_hmc_gaussian () =
  let rng = Rng.create 107 in
  let r =
    Hmc.run ~rng ~n_samples:3000 ~burn_in:800 ~leapfrog_steps:10
      gaussian_target
  in
  run_and_check_moments "hmc" r.Hmc.chain;
  Alcotest.(check bool) "acceptance high" true (r.Hmc.acceptance > 0.5)

let test_mh_beta () =
  let rng = Rng.create 109 in
  let r =
    Metropolis.run_single_site ~rng ~n_samples:4000 ~burn_in:1000 beta_target
  in
  let m0 = Chain.marginal r.Metropolis.chain 0 in
  let m1 = Chain.marginal r.Metropolis.chain 1 in
  close "beta mean0 = 3/5" 0.6 (Summary.mean m0) 0.03;
  close "beta mean1 = 2/7" (2.0 /. 7.0) (Summary.mean m1) 0.03;
  Alcotest.(check bool) "support respected" true
    (Array.for_all (fun x -> x >= 0.0 && x <= 1.0) m0)

let test_hmc_beta () =
  let rng = Rng.create 113 in
  let r =
    Hmc.run ~rng ~n_samples:3000 ~burn_in:800 ~leapfrog_steps:10 beta_target
  in
  let m0 = Chain.marginal r.Hmc.chain 0 in
  let m1 = Chain.marginal r.Hmc.chain 1 in
  close "hmc beta mean0" 0.6 (Summary.mean m0) 0.03;
  close "hmc beta mean1" (2.0 /. 7.0) (Summary.mean m1) 0.03

let test_gibbs_beta () =
  let rng = Rng.create 127 in
  let r = Gibbs.run ~rng ~n_samples:3000 ~burn_in:300 beta_target in
  let m0 = Chain.marginal r.Gibbs.chain 0 in
  let m1 = Chain.marginal r.Gibbs.chain 1 in
  close "gibbs beta mean0" 0.6 (Summary.mean m0) 0.03;
  close "gibbs beta mean1" (2.0 /. 7.0) (Summary.mean m1) 0.03;
  (* Gibbs never rejects, but acceptance now reports mobility: the fraction
     of sweeps where some coordinate changed grid cell.  A well-mixing
     beta-target chain moves nearly every sweep. *)
  Alcotest.(check bool)
    "mobility in (0, 1]" true
    (r.Gibbs.acceptance > 0.0 && r.Gibbs.acceptance <= 1.0);
  Alcotest.(check bool) "support respected" true
    (Array.for_all (fun x -> x > 0.0 && x < 1.0) m0)

let test_gibbs_rejects_unbounded () =
  let rng = Rng.create 1 in
  Alcotest.(check bool) "unbounded rejected" true
    (try
       ignore (Gibbs.run ~rng ~n_samples:5 ~burn_in:1 gaussian_target);
       false
     with Invalid_argument _ -> true)

let test_hmc_requires_gradient () =
  let no_grad =
    Target.create ~dim:1 ~support:Target.Unbounded (fun p ->
        -.(p.(0) *. p.(0)))
  in
  let rng = Rng.create 1 in
  Alcotest.check_raises "no gradient"
    (Invalid_argument "Hmc.run: target has no gradient") (fun () ->
      ignore (Hmc.run ~rng ~n_samples:10 ~burn_in:5 no_grad))

let test_sigmoid_logit () =
  close "sigmoid 0" 0.5 (Hmc.sigmoid 0.0) 1e-12;
  close "roundtrip" 0.3 (Hmc.sigmoid (Hmc.logit 0.3)) 1e-9;
  close "logit 0.5" 0.0 (Hmc.logit 0.5) 1e-9;
  Alcotest.(check bool) "extreme stays finite" true
    (Float.is_finite (Hmc.logit 1.0) && Float.is_finite (Hmc.logit 0.0))

let test_reflect_unit () =
  close "inside" 0.4 (Metropolis.reflect_unit 0.4) 1e-12;
  close "below" 0.2 (Metropolis.reflect_unit (-0.2)) 1e-12;
  close "above" 0.7 (Metropolis.reflect_unit 1.3) 1e-12;
  close "double wrap" 0.5 (Metropolis.reflect_unit 2.5) 1e-12

let qcheck_reflect_in_unit =
  QCheck.Test.make ~name:"reflect_unit lands in [0,1]" ~count:500
    QCheck.(float_range (-50.0) 50.0)
    (fun x ->
      let v = Metropolis.reflect_unit x in
      v >= 0.0 && v <= 1.0)

(* Chain utilities *)

let test_chain_ops () =
  let chain = Chain.of_samples [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  Alcotest.(check int) "length" 3 (Chain.length chain);
  Alcotest.(check int) "dim" 2 (Chain.dim chain);
  Alcotest.(check (array (float 0.0))) "marginal" [| 2.0; 4.0; 6.0 |]
    (Chain.marginal chain 1);
  let thinned = Chain.thin chain 2 in
  Alcotest.(check int) "thinned" 2 (Chain.length thinned);
  let doubled = Chain.append chain chain in
  Alcotest.(check int) "appended" 6 (Chain.length doubled);
  let sums = Chain.map_draws chain (fun d -> d.(0) +. d.(1)) in
  Alcotest.(check (array (float 0.0))) "map_draws" [| 3.0; 7.0; 11.0 |] sums

let test_chain_concat () =
  let a = Chain.of_samples [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Chain.of_samples [| [| 5.0; 6.0 |] |] in
  let c = Chain.concat [ a; b; a ] in
  Alcotest.(check int) "length" 5 (Chain.length c);
  Alcotest.(check (array (float 0.0))) "order preserved"
    [| 1.0; 3.0; 5.0; 1.0; 3.0 |]
    (Chain.marginal c 0);
  (match Chain.concat [] with
  | _ -> Alcotest.fail "empty list accepted"
  | exception Invalid_argument _ -> ());
  let odd = Chain.of_samples [| [| 1.0 |] |] in
  match Chain.concat [ a; odd ] with
  | _ -> Alcotest.fail "dimension mismatch accepted"
  | exception Invalid_argument _ -> ()

let qcheck_append_vs_concat =
  (* append folded left over the pieces must equal concat of the pieces,
     draw for draw — concat is the one-allocation fast path. *)
  QCheck.Test.make ~name:"Chain fold-append equals concat" ~count:200
    (QCheck.make
       QCheck.Gen.(
         int_range 1 6 >>= fun dim ->
         list_size (int_range 1 5)
           (list_size (int_range 1 12)
              (array_repeat dim (float_range (-10.0) 10.0))
           >|= Array.of_list)))
    (fun matrices ->
      let chains = List.map Chain.of_samples matrices in
      let folded =
        List.fold_left Chain.append (List.hd chains) (List.tl chains)
      in
      let concatenated = Chain.concat chains in
      Chain.equal folded concatenated)

let test_thin_guard () =
  let chain = Chain.of_samples [| [| 1.0 |]; [| 2.0 |] |] in
  List.iter
    (fun k ->
      match Chain.thin chain k with
      | _ -> Alcotest.failf "thin accepted %d" k
      | exception Invalid_argument _ -> ())
    [ 0; -1; min_int ]

(* Random n×dim matrix generator shared by the flat-storage equivalence
   properties below. *)
let matrix_gen =
  QCheck.make
    QCheck.Gen.(
      int_range 1 6 >>= fun dim ->
      list_size (int_range 1 20) (array_repeat dim (float_range (-10.0) 10.0))
      >|= Array.of_list)

(* Flat row-major storage must be observationally identical to the
   reference row-per-draw representation: every accessor is checked
   against the raw matrix it was built from. *)
let qcheck_flat_matches_reference =
  QCheck.Test.make ~name:"flat chain equals row-matrix reference" ~count:200
    matrix_gen
    (fun m ->
      let chain = Chain.of_samples m in
      let n = Array.length m and dim = Array.length m.(0) in
      Chain.length chain = n
      && Chain.dim chain = dim
      && Array.for_all Fun.id
           (Array.init n (fun k ->
                Chain.get chain k = m.(k)
                && Array.for_all Fun.id
                     (Array.init dim (fun i ->
                          Chain.value chain k i = m.(k).(i)))))
      && Array.for_all Fun.id
           (Array.init dim (fun i ->
                Chain.marginal chain i = Array.map (fun row -> row.(i)) m)))

let qcheck_flat_thin_concat =
  QCheck.Test.make ~name:"flat thin/concat/equal match the reference"
    ~count:200
    QCheck.(pair matrix_gen (int_range 1 8))
    (fun (m, k) ->
      let chain = Chain.of_samples m in
      let thinned = Chain.thin chain k in
      let expected_rows =
        Array.of_list
          (List.filteri
             (fun j _ -> j mod k = 0)
             (Array.to_list (Array.map Array.copy m)))
      in
      Chain.equal thinned (Chain.of_samples expected_rows)
      && Chain.equal (Chain.concat [ chain; thinned ])
           (Chain.of_samples (Array.append m expected_rows))
      && Chain.equal chain (Chain.of_samples m)
      &&
      if k = 1 then Chain.equal chain thinned
      else Chain.length chain <= k || not (Chain.equal chain thinned))

let test_chain_storage_isolation () =
  (* of_samples copies its input; get returns fresh rows; thin owns its
     storage.  The historical row-sharing representation leaked mutations
     across all three boundaries. *)
  let m = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  let chain = Chain.of_samples m in
  m.(0).(0) <- 99.0;
  Alcotest.(check (float 0.0)) "input mutation invisible" 1.0
    (Chain.value chain 0 0);
  let row = Chain.get chain 1 in
  row.(0) <- -7.0;
  Alcotest.(check (float 0.0)) "get row is a copy" 3.0 (Chain.value chain 1 0);
  let thinned = Chain.thin chain 2 in
  let trow = Chain.get thinned 0 in
  trow.(1) <- -8.0;
  Alcotest.(check (float 0.0)) "thin does not alias" 2.0
    (Chain.value chain 0 1);
  Alcotest.(check (float 0.0)) "thin row copy" 2.0 (Chain.value thinned 0 1)

let test_chain_of_flat () =
  let chain = Chain.of_flat ~dim:2 [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check int) "length" 2 (Chain.length chain);
  Alcotest.(check (array (float 0.0))) "row 1" [| 3.0; 4.0 |]
    (Chain.get chain 1);
  List.iter
    (fun (name, f) ->
      match f () with
      | (_ : Chain.t) -> Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("empty", fun () -> Chain.of_flat ~dim:2 [||]);
      ("ragged length", fun () -> Chain.of_flat ~dim:2 [| 1.0; 2.0; 3.0 |]);
      ("dim 0", fun () -> Chain.of_flat ~dim:0 [| 1.0 |]);
    ]

let test_chain_builder () =
  let b = Chain.Builder.create ~dim:2 ~capacity:3 in
  Alcotest.(check int) "empty count" 0 (Chain.Builder.count b);
  Alcotest.(check int) "dim" 2 (Chain.Builder.dim b);
  Chain.Builder.push b [| 1.0; 2.0 |];
  Chain.Builder.push b [| 3.0; 4.0 |];
  Alcotest.(check (array (float 0.0))) "flat prefix" [| 1.0; 2.0; 3.0; 4.0 |]
    (Chain.Builder.flat_prefix b);
  (match Chain.Builder.push b [| 5.0 |] with
  | () -> Alcotest.fail "dim mismatch accepted"
  | exception Invalid_argument _ -> ());
  let chain = Chain.Builder.to_chain b in
  Alcotest.(check int) "partial chain length" 2 (Chain.length chain);
  (* Sealed: the builder is unusable after to_chain. *)
  (match Chain.Builder.push b [| 5.0; 6.0 |] with
  | () -> Alcotest.fail "push after to_chain accepted"
  | exception Invalid_argument _ -> ());
  (match Chain.Builder.to_chain b with
  | (_ : Chain.t) -> Alcotest.fail "second to_chain accepted"
  | exception Invalid_argument _ -> ());
  (* load_flat replaces content and validates shape. *)
  let b2 = Chain.Builder.create ~dim:2 ~capacity:2 in
  Chain.Builder.push b2 [| 9.0; 9.0 |];
  Chain.Builder.load_flat b2 [| 1.0; 2.0; 3.0; 4.0 |];
  Alcotest.(check int) "loaded count" 2 (Chain.Builder.count b2);
  (match Chain.Builder.load_flat b2 [| 1.0; 2.0; 3.0 |] with
  | () -> Alcotest.fail "ragged load accepted"
  | exception Invalid_argument _ -> ());
  (match Chain.Builder.load_flat b2 (Array.make 6 0.0) with
  | () -> Alcotest.fail "over-capacity load accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "full builder round-trips" true
    (Chain.equal
       (Chain.Builder.to_chain b2)
       (Chain.of_samples [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]));
  match Chain.Builder.create ~dim:0 ~capacity:1 with
  | (_ : Chain.Builder.t) -> Alcotest.fail "dim=0 accepted"
  | exception Invalid_argument _ -> ()

(* The coordinate-wise diagnostics over flat chains must agree exactly with
   the historical array-marginal path — Infer's convergence verdicts may
   not shift with the storage change. *)
let test_rhat_coord_matches_arrays () =
  let rng = Rng.create 811 in
  let sample_matrix () =
    Array.init 200 (fun _ ->
        Array.init 3 (fun _ -> Dist.normal rng ~mu:0.5 ~sigma:0.2))
  in
  let m1 = sample_matrix () and m2 = sample_matrix () in
  let c1 = Chain.of_samples m1 and c2 = Chain.of_samples m2 in
  for i = 0 to 2 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "r_hat coord %d" i)
      (Diagnostics.r_hat
         [| Chain.marginal c1 i; Chain.marginal c2 i |])
      (Diagnostics.r_hat_coord [| c1; c2 |] i);
    Alcotest.(check (float 0.0))
      (Printf.sprintf "split r_hat coord %d" i)
      (Diagnostics.split_r_hat (Chain.marginal c1 i))
      (Diagnostics.split_r_hat_coord c1 i)
  done

(* The stateful cache protocol: a generic cache built by [Target.cache_at]
   must drive the single-site sampler to the exact same chain as the
   stateless path — the protocol changes bookkeeping, not arithmetic. *)
let test_cache_protocol_preserves_sampler () =
  let cached_beta =
    { beta_target with Target.make_cache = Some (Target.cache_at beta_target) }
  in
  let sample target =
    Metropolis.run_single_site ~rng:(Rng.create 211) ~n_samples:500
      ~burn_in:200 target
  in
  let plain = sample beta_target and cached = sample cached_beta in
  Alcotest.(check (float 0.0)) "same acceptance"
    plain.Metropolis.acceptance cached.Metropolis.acceptance;
  for k = 0 to Chain.length plain.Metropolis.chain - 1 do
    Alcotest.(check (array (float 0.0)))
      (Printf.sprintf "draw %d" k)
      (Chain.get plain.Metropolis.chain k)
      (Chain.get cached.Metropolis.chain k)
  done

let test_cache_at_tracks_commits () =
  let c = Target.cache_at gaussian_target [| 0.0; 0.0 |] in
  (* delta of moving coordinate 0 to 1.0 from (0,0): −½(1−1)² + ½(0−1)² … for
     the gaussian target with mu=(1,−2), sigma=(1,0.5):
     lp(1,0) − lp(0,0) = 0 − (−0.5) + const-in-other-coord = 0.5 *)
  Alcotest.(check (float 1e-9)) "first delta" 0.5
    (c.Target.cached_delta 0 1.0);
  c.Target.cached_commit 0 1.0;
  (* from (1,0): moving coordinate 0 back to 0 costs −0.5 *)
  Alcotest.(check (float 1e-9)) "post-commit delta" (-0.5)
    (c.Target.cached_delta 0 0.0);
  (* rejections are free: the uncommitted probe above left the state at (1,0) *)
  Alcotest.(check (float 1e-9)) "state unchanged by probes" (-0.5)
    (c.Target.cached_delta 0 0.0)

(* Diagnostics *)

let test_autocorrelation () =
  let rng = Rng.create 211 in
  let iid = Array.init 5000 (fun _ -> Dist.normal rng ~mu:0.0 ~sigma:1.0) in
  close "iid lag1 ~ 0" 0.0 (Diagnostics.autocorrelation iid 1) 0.05;
  let persistent = Array.init 1000 (fun i -> float_of_int (i / 100)) in
  Alcotest.(check bool) "trending series strongly correlated" true
    (Diagnostics.autocorrelation persistent 1 > 0.9)

let test_ess () =
  let rng = Rng.create 223 in
  let n = 4000 in
  let iid = Array.init n (fun _ -> Dist.normal rng ~mu:0.0 ~sigma:1.0) in
  let ess = Diagnostics.effective_sample_size iid in
  Alcotest.(check bool)
    (Printf.sprintf "iid ESS near n (got %.0f)" ess)
    true
    (ess > 0.6 *. float_of_int n);
  (* AR(1) with high persistence has far lower ESS *)
  let ar = Array.make n 0.0 in
  for i = 1 to n - 1 do
    ar.(i) <- (0.95 *. ar.(i - 1)) +. Dist.normal rng ~mu:0.0 ~sigma:1.0
  done;
  let ess_ar = Diagnostics.effective_sample_size ar in
  Alcotest.(check bool) "AR(1) ESS much smaller" true
    (ess_ar < 0.2 *. float_of_int n)

let test_rhat () =
  let rng = Rng.create 227 in
  let chain () = Array.init 2000 (fun _ -> Dist.normal rng ~mu:0.0 ~sigma:1.0) in
  let same = Diagnostics.r_hat [| chain (); chain () |] in
  Alcotest.(check bool) "same-dist chains ~ 1" true (same < 1.05);
  let shifted =
    Array.init 2000 (fun _ -> Dist.normal rng ~mu:5.0 ~sigma:1.0)
  in
  let diverged = Diagnostics.r_hat [| chain (); shifted |] in
  Alcotest.(check bool) "diverged chains >> 1" true (diverged > 1.5)

let test_split_rhat () =
  let rng = Rng.create 229 in
  let mixed = Array.init 4000 (fun _ -> Dist.normal rng ~mu:0.0 ~sigma:1.0) in
  Alcotest.(check bool) "stationary chain ~ 1" true
    (Diagnostics.split_r_hat mixed < 1.05);
  let drifting = Array.init 4000 (fun i -> float_of_int i /. 100.0) in
  Alcotest.(check bool) "drifting chain flagged" true
    (Diagnostics.split_r_hat drifting > 1.2)

(* --- input-validation guards --- *)

let nan_target =
  Target.create ~dim:1 ~support:Target.Unbounded
    ~grad:(fun _ -> [| 0.0 |])
    (fun _ -> Float.nan)

let expect_failure name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Failure")
  | exception Failure _ -> ()

let test_mh_rejects_nan_target () =
  expect_failure "single-site" (fun () ->
      Metropolis.run_single_site ~rng:(Rng.create 1) ~n_samples:10 ~burn_in:5
        nan_target)

let test_hmc_rejects_nan_target () =
  expect_failure "hmc" (fun () ->
      Hmc.run ~rng:(Rng.create 1) ~n_samples:10 ~burn_in:5 nan_target)

let test_chain_rejects_ragged () =
  (match Chain.of_samples [| [| 1.0; 2.0 |]; [| 3.0 |] |] with
  | _ -> Alcotest.fail "ragged matrix accepted"
  | exception Invalid_argument _ -> ());
  match Chain.of_samples [||] with
  | _ -> Alcotest.fail "empty matrix accepted"
  | exception Invalid_argument _ -> ()

let test_chain_get_bounds () =
  let c = Chain.of_samples [| [| 1.0 |]; [| 2.0 |] |] in
  Alcotest.(check (float 0.0)) "in bounds" 2.0 (Chain.get c 1).(0);
  (match Chain.get c 2 with
  | _ -> Alcotest.fail "out-of-bounds draw accepted"
  | exception Invalid_argument _ -> ());
  match Chain.get c (-1) with
  | _ -> Alcotest.fail "negative draw accepted"
  | exception Invalid_argument _ -> ()

let suite =
  ( "mcmc",
    [
      Alcotest.test_case "gradient check ok" `Quick test_gradient_check;
      Alcotest.test_case "gradient check catches errors" `Quick
        test_gradient_check_detects_error;
      Alcotest.test_case "with_coordinate" `Quick test_with_coordinate;
      Alcotest.test_case "MH single-site gaussian" `Slow
        test_mh_single_site_gaussian;
      Alcotest.test_case "HMC gaussian" `Slow test_hmc_gaussian;
      Alcotest.test_case "MH beta posterior" `Slow test_mh_beta;
      Alcotest.test_case "HMC beta posterior" `Slow test_hmc_beta;
      Alcotest.test_case "Gibbs beta posterior" `Slow test_gibbs_beta;
      Alcotest.test_case "Gibbs rejects unbounded" `Quick
        test_gibbs_rejects_unbounded;
      Alcotest.test_case "HMC requires gradient" `Quick
        test_hmc_requires_gradient;
      Alcotest.test_case "sigmoid/logit" `Quick test_sigmoid_logit;
      Alcotest.test_case "reflect_unit" `Quick test_reflect_unit;
      QCheck_alcotest.to_alcotest qcheck_reflect_in_unit;
      Alcotest.test_case "chain operations" `Quick test_chain_ops;
      Alcotest.test_case "chain concat" `Quick test_chain_concat;
      QCheck_alcotest.to_alcotest qcheck_append_vs_concat;
      Alcotest.test_case "thin rejects non-positive stride" `Quick
        test_thin_guard;
      QCheck_alcotest.to_alcotest qcheck_flat_matches_reference;
      QCheck_alcotest.to_alcotest qcheck_flat_thin_concat;
      Alcotest.test_case "chain storage isolation" `Quick
        test_chain_storage_isolation;
      Alcotest.test_case "chain of_flat" `Quick test_chain_of_flat;
      Alcotest.test_case "chain builder" `Quick test_chain_builder;
      Alcotest.test_case "coordinate r-hat matches arrays" `Quick
        test_rhat_coord_matches_arrays;
      Alcotest.test_case "cache protocol preserves the sampler" `Quick
        test_cache_protocol_preserves_sampler;
      Alcotest.test_case "cache_at tracks commits" `Quick
        test_cache_at_tracks_commits;
      Alcotest.test_case "autocorrelation" `Quick test_autocorrelation;
      Alcotest.test_case "effective sample size" `Quick test_ess;
      Alcotest.test_case "r-hat" `Quick test_rhat;
      Alcotest.test_case "split r-hat" `Quick test_split_rhat;
      Alcotest.test_case "MH rejects non-finite target" `Quick
        test_mh_rejects_nan_target;
      Alcotest.test_case "HMC rejects non-finite target" `Quick
        test_hmc_rejects_nan_target;
      Alcotest.test_case "chain rejects ragged input" `Quick
        test_chain_rejects_ragged;
      Alcotest.test_case "chain bounds checks" `Quick test_chain_get_bounds;
    ] )

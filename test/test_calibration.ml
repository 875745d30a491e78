(* Simulation-based calibration (Talts et al. 2018, arXiv:1804.06788) of the
   MH and HMC samplers on the tomography model — the cheap tier-1 subset.

   Draw p from the prior, simulate labels over a fixed incidence structure,
   sample the posterior, and record the rank of each true pᵢ among the
   retained draws.  If the sampler targets the right posterior the ranks are
   uniform.  The structure observes every path several times, so some paths
   carry both labels, and a likelihood that counts each distinct path once
   fails it; the §7.2 false-negative rate runs at 0 and 0.1.  At this size
   it does not detect a dropped HMC logit Jacobian (checked by mutation);
   the prior-only moment test below does.  HMC draws are
   thinned harder than MH draws because they are more autocorrelated here:
   at thin 3 their ranks come out U-shaped. *)

open Because_bgp
module Tomography = Because.Tomography
module Model = Because.Model
module Prior = Because.Prior
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Chain = Because_mcmc.Chain

let prior_a = 2.0
let prior_b = 2.0
let prior = Prior.Beta { a = prior_a; b = prior_b }

(* Four ASs, seven distinct paths, each observed three times. *)
let paths = [ [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ]; [ 1; 4 ]; [ 1; 3 ]; [ 2 ]; [ 4 ] ]
let repeats = 3
let n_nodes = 4
let replicates = 300

(* Retained draws per replicate: ranks fall in 0..draws, one bin each. *)
let draws = 9

(* χ² with [draws] degrees of freedom at p = 0.001. *)
let chi2_critical = 27.88

let simulate rng ~epsilon p =
  List.concat_map
    (fun path ->
      List.init repeats (fun _ ->
          let q = List.fold_left (fun acc a -> acc *. (1.0 -. p.(a - 1))) 1.0 path in
          let shows = Rng.float rng >= q in
          let recorded = shows && not (epsilon > 0.0 && Rng.float rng < epsilon) in
          (List.map Asn.of_int path, recorded)))
    paths

(* Index of the AS numbered [a] in the dataset built from the simulated
   observations (first-appearance order). *)
let index data a = Option.get (Tomography.index_of data (Asn.of_int a))

let ranks ~sample ~epsilon seed =
  let rng = Rng.create seed in
  let counts = Array.make_matrix n_nodes (draws + 1) 0 in
  for _ = 1 to replicates do
    let p = Array.init n_nodes (fun _ -> Dist.beta rng ~a:prior_a ~b:prior_b) in
    let data = Tomography.of_observations (simulate rng ~epsilon p) in
    let model = Model.create ~prior ~false_negative_rate:epsilon data in
    let chain = sample (Rng.split rng) (Model.target model) in
    for a = 1 to n_nodes do
      let i = index data a in
      let rank = ref 0 in
      for k = 0 to Chain.length chain - 1 do
        if Chain.value chain k i < p.(a - 1) then incr rank
      done;
      counts.(a - 1).(!rank) <- counts.(a - 1).(!rank) + 1
    done
  done;
  counts

let chi2 bins =
  let expected = float_of_int replicates /. float_of_int (Array.length bins) in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0.0 bins

let check_uniform name counts =
  Array.iteri
    (fun a bins ->
      let x = chi2 bins in
      Alcotest.(check bool)
        (Printf.sprintf "%s AS%d ranks uniform (chi2 %.1f < %.1f; bins %s)" name
           (a + 1) x chi2_critical
           (String.concat " " (Array.to_list (Array.map string_of_int bins))))
        true (x < chi2_critical))
    counts

(* Every [k]-th retained draw of a [draws × k] run: the sweeps
   [burn_in + j·k], j < draws. *)
let mh rng target =
  Chain.thin
    (Because_mcmc.Metropolis.run_single_site ~rng ~n_samples:(draws * 6)
       ~burn_in:100 target)
      .Because_mcmc.Metropolis.chain
    6

let hmc rng target =
  Chain.thin
    (Because_mcmc.Hmc.run ~rng ~leapfrog_steps:8 ~n_samples:(draws * 15)
       ~burn_in:100 target)
      .Because_mcmc.Hmc.chain
    15

let test_sbc ~sampler ~name ~epsilon ~seed () =
  check_uniform
    (Printf.sprintf "%s eps=%.1f" name epsilon)
    (ranks ~sample:sampler ~epsilon seed)

(* HMC on a prior-only product of Beta(a, b) coordinates must reproduce
   their exact means and variances.  The sampler moves in logit space, so
   this pins the change-of-variables Jacobian: without it the chain
   targets Beta(a−1, b−1) — uniform instead of Beta(2, 2) (variance 1/12
   instead of 1/20), and an improper density that drifts to 0 instead of
   Beta(1, 5). *)
let test_hmc_prior_moments () =
  let betas = [| (2.0, 2.0); (1.0, 5.0) |] in
  let log_density p =
    let acc = ref 0.0 in
    Array.iteri
      (fun i (a, b) ->
        acc := !acc +. Dist.beta_log_pdf ~a ~b p.(i))
      betas;
    !acc
  in
  let grad p =
    Array.mapi
      (fun i (a, b) -> ((a -. 1.0) /. p.(i)) -. ((b -. 1.0) /. (1.0 -. p.(i))))
      betas
  in
  let target =
    Because_mcmc.Target.create ~grad ~dim:2
      ~support:Because_mcmc.Target.Unit_interval log_density
  in
  let chain =
    (Because_mcmc.Hmc.run ~rng:(Rng.create 5) ~leapfrog_steps:8 ~n_samples:4000
       ~burn_in:200 target)
      .Because_mcmc.Hmc.chain
  in
  Array.iteri
    (fun i (a, b) ->
      let xs = Chain.marginal chain i in
      let mean = a /. (a +. b) in
      let var = a *. b /. ((a +. b) *. (a +. b) *. (a +. b +. 1.0)) in
      let name = Printf.sprintf "Beta(%g,%g)" a b in
      Alcotest.(check (float 0.03)) (name ^ " mean") mean
        (Because_stats.Summary.mean xs);
      Alcotest.(check (float (0.2 *. var))) (name ^ " variance") var
        (Because_stats.Summary.variance xs))
    betas

let suite =
  ( "calibration",
    [
      Alcotest.test_case "SBC MH eps=0" `Quick
        (test_sbc ~sampler:mh ~name:"MH" ~epsilon:0.0 ~seed:11);
      Alcotest.test_case "SBC MH eps=0.1" `Quick
        (test_sbc ~sampler:mh ~name:"MH" ~epsilon:0.1 ~seed:12);
      Alcotest.test_case "SBC HMC eps=0" `Quick
        (test_sbc ~sampler:hmc ~name:"HMC" ~epsilon:0.0 ~seed:13);
      Alcotest.test_case "SBC HMC eps=0.1" `Quick
        (test_sbc ~sampler:hmc ~name:"HMC" ~epsilon:0.1 ~seed:14);
      Alcotest.test_case "HMC prior-only Beta moments" `Quick
        test_hmc_prior_moments;
    ] )

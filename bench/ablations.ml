(* Ablation benches for the design choices DESIGN.md calls out. *)

open Because_bgp
module Sc = Because_scenario
module Ctx = Bench_context
module Diagnostics = Because_mcmc.Diagnostics
open Because_baselines

let samplers () =
  Ctx.section "Ablation — MH vs HMC";
  Ctx.paper
    "§3.2 uses both samplers and keeps the highest flag; they should agree \
     on the marginals";
  let outcome = Ctx.one_minute () in
  match outcome.Sc.Campaign.result with
  | None -> print_endline "no inference result"
  | Some result ->
      let per = Because.Posterior.per_sampler result in
      let mh = List.assoc "MH" per and hmc = List.assoc "HMC" per in
      let diffs =
        Array.init (Array.length mh) (fun i ->
            Float.abs
              (mh.(i).Because.Posterior.mean -. hmc.(i).Because.Posterior.mean))
      in
      Printf.printf "mean |MH − HMC| over %d ASs: %.4f (max %.4f)\n"
        (Array.length diffs)
        (Because_stats.Summary.mean diffs)
        (Because_stats.Summary.max diffs);
      (* Effective sample size per retained draw for the busiest AS. *)
      let busiest =
        let data = Because.Infer.dataset result in
        let best = ref 0 in
        for i = 0 to Because.Tomography.n_nodes data - 1 do
          if
            Because.Tomography.support data i
            > Because.Tomography.support data !best
          then best := i
        done;
        !best
      in
      List.iter
        (fun (run : Because.Infer.sampler_run) ->
          let samples =
            Because_mcmc.Chain.marginal run.Because.Infer.chain busiest
          in
          Printf.printf
            "%-4s acceptance %.2f, ESS %.0f / %d draws, split-R̂ %.3f\n"
            run.Because.Infer.name run.Because.Infer.acceptance
            (Diagnostics.effective_sample_size samples)
            (Array.length samples)
            (Diagnostics.split_r_hat samples))
        result.Because.Infer.runs;
      (* The paper's §1/§8 cost claim: naive Gibbs is what made computational
         Bayes look unaffordable.  Same dataset, same draw budget, wall-clock
         and ESS per second for all three samplers. *)
      print_endline
        "sampler cost on the campaign posterior (400 draws, median of 5 runs):";
      let world = Lazy.force Ctx.world in
      let target = Because.Model.target result.Because.Infer.model in
      let draws = 400 and burn = 200 in
      (* One MH run takes 0.1-0.2 s, so a single timing spreads ESS/s by a
         third between runs: each sampler runs [reps] times on the same
         stream (the same chain, so the same ESS) and reports the median
         time, with the ESS/s range over the runs. *)
      let reps = 5 in
      let time_run name f =
        let times =
          Array.init reps (fun _ ->
              let rng = Sc.World.fresh_rng world ~salt:(Hashtbl.hash name) in
              let t0 = Unix.gettimeofday () in
              let chain = f rng in
              (Unix.gettimeofday () -. t0, chain))
        in
        let ess =
          Diagnostics.effective_sample_size
            (Because_mcmc.Chain.marginal (snd times.(0)) busiest)
        in
        let dts = Array.map fst times in
        Array.sort Float.compare dts;
        let dt = dts.(reps / 2) in
        Printf.printf
          "%-6s %6.2f s   ESS %5.0f   ESS/s %7.1f (%.1f-%.1f over %d runs)\n"
          name dt ess (ess /. dt)
          (ess /. dts.(reps - 1))
          (ess /. dts.(0))
          reps
      in
      time_run "MH" (fun rng ->
          (Because_mcmc.Metropolis.run_single_site ~rng ~n_samples:draws
             ~burn_in:burn target)
            .Because_mcmc.Metropolis.chain);
      time_run "HMC" (fun rng ->
          (Because_mcmc.Hmc.run ~rng ~n_samples:draws ~burn_in:burn
             ~leapfrog_steps:12 target)
            .Because_mcmc.Hmc.chain);
      time_run "Gibbs" (fun rng ->
          (Gibbs.run ~rng ~n_samples:draws ~burn_in:burn target)
            .Gibbs.chain)

let priors () =
  Ctx.section "Ablation — prior choice";
  Ctx.paper
    "§3.2: there is enough data that the choice of prior does not strongly \
     influence the results";
  let outcome = Ctx.one_minute () in
  let observations = Sc.Campaign.observations outcome in
  if observations = [] then print_endline "no observations"
  else begin
    let data = Because.Tomography.of_observations observations in
    let world = Lazy.force Ctx.world in
    List.iter
      (fun (name, prior) ->
        let config =
          { Because.Infer.default_config with
            prior;
            n_samples = 600;
            burn_in = 400;
            node_priors = Sc.World.node_priors world }
        in
        let rng = Sc.World.fresh_rng world ~salt:(Hashtbl.hash name) in
        let result = Because.Infer.run ~rng ~config data in
        let categories = Because.Pinpoint.assign_with_pinpointing result in
        let damping =
          Asn.Set.cardinal (Because.Evaluate.damping_set categories)
        in
        Printf.printf "%-16s flags %d damping ASs of %d\n" name damping
          (List.length categories))
      [
        ("uniform", Because.Prior.Uniform);
        ("beta(0.5,0.5)", Because.Prior.Beta { a = 0.5; b = 0.5 });
        ("beta(2,2)", Because.Prior.Beta { a = 2.0; b = 2.0 });
      ]
  end

let r_delta_threshold () =
  Ctx.section "Ablation — minimum r-delta threshold";
  Ctx.paper
    "§4.2 picks 5 minutes to clearly separate damping from propagation and \
     MRAI; our collectors add up to 2 minutes of export latency";
  let outcome = Ctx.one_minute () in
  let windows_of = Sc.Campaign.windows_of outcome in
  List.iter
    (fun threshold ->
      let labeled =
        Because_labeling.Label.label_all ~min_r_delta:threshold
          ~records:outcome.Sc.Campaign.records ~windows_of ()
      in
      let rfd =
        List.length
          (List.filter
             (fun (lp : Because_labeling.Label.labeled_path) ->
               lp.Because_labeling.Label.rfd)
             labeled)
      in
      Printf.printf "min r-delta %4.0f s: %4d of %4d paths labeled RFD\n"
        threshold rfd (List.length labeled))
    [ 60.0; 180.0; 300.0; 480.0; 900.0 ]

let match_threshold () =
  Ctx.section "Ablation — the ≥90% Burst–Break rule";
  Ctx.paper
    "§4.2 labels RFD when at least 90% of pairs match, absorbing session \
     resets and infrastructure noise";
  let outcome = Ctx.one_minute () in
  let windows_of = Sc.Campaign.windows_of outcome in
  List.iter
    (fun threshold ->
      let labeled =
        Because_labeling.Label.label_all ~match_threshold:threshold
          ~min_r_delta:outcome.Sc.Campaign.params.Sc.Campaign.min_r_delta
          ~records:outcome.Sc.Campaign.records ~windows_of ()
      in
      let rfd =
        List.length
          (List.filter
             (fun (lp : Because_labeling.Label.labeled_path) ->
               lp.Because_labeling.Label.rfd)
             labeled)
      in
      Printf.printf "match threshold %.0f%%: %4d RFD paths\n"
        (100.0 *. threshold) rfd)
    [ 0.5; 0.75; 0.9; 1.0 ]

let pinpointing () =
  Ctx.section "Ablation — step-2 pinpointing on/off";
  Ctx.paper
    "step 2 (eq. 8) recovers inconsistently damping ASs such as AS 701 that \
     step 1 leaves uncertain";
  let world = Lazy.force Ctx.world in
  let outcome = Ctx.one_minute () in
  let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment world) in
  let universe = Sc.Campaign.universe outcome in
  let evaluate name categories =
    let m =
      Because.Evaluate.of_sets
        ~predicted:(Because.Evaluate.damping_set categories)
        ~truth ~universe
    in
    Printf.printf "%-18s precision %5.1f%% recall %5.1f%%\n" name
      (100.0 *. m.Because.Evaluate.precision)
      (100.0 *. m.Because.Evaluate.recall)
  in
  evaluate "step 1 only" outcome.Sc.Campaign.categories_step1;
  evaluate "with pinpointing" outcome.Sc.Campaign.categories;
  (match Sc.Deployment.inconsistent (Sc.World.deployment world) with
  | Some (asn, spared) ->
      let in_set categories =
        Asn.Set.mem asn (Because.Evaluate.damping_set categories)
      in
      Printf.printf
        "planted inconsistent damper %s (spares %s): step1=%b, with \
         pinpointing=%b\n"
        (Asn.to_string asn) (Asn.to_string spared)
        (in_set outcome.Sc.Campaign.categories_step1)
        (in_set outcome.Sc.Campaign.categories)
  | None -> ());
  Printf.printf "promotions fired: %d\n"
    (List.length outcome.Sc.Campaign.promotions)

let link_granularity () =
  Ctx.section "Ablation — AS-level vs link-level tomography";
  Ctx.paper
    "§6.3: pinpointing individual AS links would handle heterogeneous \
     configurations, but the path data is too sparse at link granularity";
  let world = Lazy.force Ctx.world in
  let outcome = Ctx.one_minute () in
  let as_obs = Sc.Campaign.observations outcome in
  if as_obs = [] then print_endline "no observations"
  else begin
    let link_obs = Link_tomography.observations as_obs in
    Printf.printf "median paths per AS node:   %.0f\n"
      (Link_tomography.median_incidence as_obs);
    Printf.printf "median paths per link node: %.0f\n"
      (Link_tomography.median_incidence link_obs);
    let infer obs =
      let data = Because.Tomography.of_observations obs in
      let config =
        { Because.Infer.default_config with n_samples = 500; burn_in = 300 }
      in
      let rng = Sc.World.fresh_rng world ~salt:4242 in
      let result = Because.Infer.run ~rng ~config data in
      (data, Because.Pinpoint.assign_with_pinpointing result)
    in
    let _, as_categories = infer as_obs in
    let _, link_categories = infer link_obs in
    let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment world) in
    let as_metrics =
      Because.Evaluate.of_sets
        ~predicted:(Because.Evaluate.damping_set as_categories)
        ~truth ~universe:(Sc.Campaign.universe outcome)
    in
    Printf.printf "AS level:   precision %5.1f%% recall %5.1f%%\n"
      (100.0 *. as_metrics.Because.Evaluate.precision)
      (100.0 *. as_metrics.Because.Evaluate.recall);
    (* Project link verdicts back to ASs: an AS is flagged if any flagged
       link touches it. *)
    let flagged_via_links =
      List.fold_left
        (fun acc (link_node, category) ->
          if Because.Categorize.damping category then begin
            let a, b = Link_tomography.decode link_node in
            Asn.Set.add a (Asn.Set.add b acc)
          end
          else acc)
        Asn.Set.empty link_categories
    in
    let link_metrics =
      Because.Evaluate.of_sets ~predicted:flagged_via_links ~truth
        ~universe:(Sc.Campaign.universe outcome)
    in
    Printf.printf "link level: precision %5.1f%% recall %5.1f%% (endpoints of flagged links)\n"
      (100.0 *. link_metrics.Because.Evaluate.precision)
      (100.0 *. link_metrics.Because.Evaluate.recall)
  end

let error_aware_likelihood () =
  Ctx.section "Ablation — §7.2 error-aware likelihood";
  Ctx.paper
    "modelling the chance that a damped path is recorded clean makes the \
     inference robust to label noise";
  let world = Lazy.force Ctx.world in
  let outcome = Ctx.one_minute () in
  let observations = Sc.Campaign.observations outcome in
  if observations = [] then print_endline "no observations"
  else begin
    (* Corrupt 15% of positive labels to clean, then infer with and without
       the error model. *)
    let rng = Sc.World.fresh_rng world ~salt:777 in
    let corrupted =
      List.map
        (fun (path, label) ->
          if label && Because_stats.Rng.float rng < 0.15 then (path, false)
          else (path, label))
        observations
    in
    let data = Because.Tomography.of_observations corrupted in
    let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment world) in
    List.iter
      (fun (name, epsilon) ->
        let config =
          { Because.Infer.default_config with
            n_samples = 600; burn_in = 400;
            false_negative_rate = epsilon;
            node_priors = Sc.World.node_priors world }
        in
        let rng = Sc.World.fresh_rng world ~salt:778 in
        let result = Because.Infer.run ~rng ~config data in
        let categories = Because.Pinpoint.assign_with_pinpointing result in
        let m =
          Because.Evaluate.of_sets
            ~predicted:(Because.Evaluate.damping_set categories)
            ~truth ~universe:(Sc.Campaign.universe outcome)
        in
        Printf.printf
          "%-12s (epsilon=%.2f): precision %5.1f%% recall %5.1f%% (on 15%%-corrupted labels)\n"
          name epsilon
          (100.0 *. m.Because.Evaluate.precision)
          (100.0 *. m.Because.Evaluate.recall))
      [ ("base", 0.0); ("error-aware", 0.15) ]
  end

let sat_baseline () =
  Ctx.section "Ablation — SAT-based binary tomography baseline (§8)";
  Ctx.paper
    "prior work casts localisation as SAT; the paper argues the formula has \
     many solutions on sparse data and zero solutions under noise and \
     inconsistent deployment — measured here instead of asserted";
  let outcome = Ctx.one_minute () in
  let observations = Sc.Campaign.observations outcome in
  if observations = [] then print_endline "no observations"
  else begin
    let data = Because.Tomography.of_observations observations in
    let verdict = Binary_tomography.solve ~solution_limit:4 data in
    Format.printf
      "full 1-minute campaign dataset (%d observations on %d distinct paths, \
       %d ASs): %a@."
      (Because.Tomography.n_observations data)
      (Because.Tomography.n_paths data)
      (Because.Tomography.n_nodes data)
      Binary_tomography.pp_verdict verdict;
    (* A sparse slice of the same data: positive paths only. *)
    let sparse =
      match List.filter snd observations with
      | [] -> []
      | positives -> [ List.hd positives ]
    in
    (match sparse with
    | [ _ ] ->
        let d = Because.Tomography.of_observations sparse in
        Format.printf "a single positive path from the same data: %a@."
          Binary_tomography.pp_verdict
          (Binary_tomography.solve ~solution_limit:8 d)
    | _ -> ());
    print_endline
      "(BeCAUSe's probabilistic model absorbs the same contradictions and \
       still ranks the likely dampers -- Table 4)"
  end

let model_criticism () =
  Ctx.section "Model criticism — posterior predictive checks";
  Ctx.paper
    "the framework's value is calibrated uncertainty: predicted path \
     probabilities should match observed label rates";
  let outcome = Ctx.one_minute () in
  match outcome.Sc.Campaign.result with
  | None -> print_endline "no inference result"
  | Some result ->
      let p = Predictive.evaluate result in
      Format.printf "%a" Predictive.pp_summary p

let all () =
  samplers ();
  priors ();
  r_delta_threshold ();
  match_threshold ();
  pinpointing ();
  link_granularity ();
  error_aware_likelihood ();
  sat_baseline ();
  model_criticism ()

(* Infer, Posterior, Categorize, Pinpoint, Evaluate on synthetic data. *)
open Because_bgp
module Tomography = Because.Tomography
module Infer = Because.Infer
module Posterior = Because.Posterior
module Categorize = Because.Categorize
module Pinpoint = Because.Pinpoint
module Evaluate = Because.Evaluate
module Hdpi = Because_stats.Hdpi
module Rng = Because_stats.Rng
module Chain = Because_mcmc.Chain

let asn = Asn.of_int
let path ints = List.map asn ints

(* A crisply identifiable world: AS1 damps everything, AS2–AS6 do not.
   Each AS appears on many paths; AS1 is on all positive ones. *)
let identifiable_observations =
  List.concat
    (List.init 10 (fun k ->
         let leaf = 2 + (k mod 5) in
         [
           (path [ leaf; 1; 99 ], true);   (* via the damper *)
           (path [ leaf; 7; 99 ], false);  (* clean route *)
         ]))

let small_config =
  { Infer.default_config with n_samples = 600; burn_in = 400 }

let run_identifiable () =
  let data = Tomography.of_observations identifiable_observations in
  Infer.run ~rng:(Rng.create 5) ~config:small_config data

let test_infer_runs_both_samplers () =
  let result = run_identifiable () in
  Alcotest.(check (list string)) "both samplers" [ "MH"; "HMC" ]
    (List.map (fun (r : Infer.sampler_run) -> r.Infer.name) result.Infer.runs);
  List.iter
    (fun (r : Infer.sampler_run) ->
      Alcotest.(check int) "samples" 600
        (Because_mcmc.Chain.length r.Infer.chain))
    result.Infer.runs

let test_infer_identifies_damper () =
  let result = run_identifiable () in
  let data = Infer.dataset result in
  let marginals = Posterior.combined result in
  let damper = Option.get (Tomography.index_of data (asn 1)) in
  let clean = Option.get (Tomography.index_of data (asn 7)) in
  Alcotest.(check bool)
    (Printf.sprintf "damper mean high (%.2f)" marginals.(damper).Posterior.mean)
    true
    (marginals.(damper).Posterior.mean > 0.8);
  Alcotest.(check bool)
    (Printf.sprintf "clean mean low (%.2f)" marginals.(clean).Posterior.mean)
    true
    (marginals.(clean).Posterior.mean < 0.2)

let test_mh_hmc_agree () =
  let result = run_identifiable () in
  let data = Infer.dataset result in
  let per = Posterior.per_sampler result in
  let mh = List.assoc "MH" per and hmc = List.assoc "HMC" per in
  let damper = Option.get (Tomography.index_of data (asn 1)) in
  Alcotest.(check bool) "samplers agree on the damper" true
    (Float.abs (mh.(damper).Posterior.mean -. hmc.(damper).Posterior.mean)
    < 0.12)

(* A NaN start gives a non-finite initial log-density, which no generator
   can repair: each chain runs once and is dropped with one warning. *)
let test_diverged_chain_runs_once () =
  let data = Tomography.of_observations identifiable_observations in
  let reg = Because_telemetry.Registry.create () in
  let config =
    { small_config with
      Infer.init = Some (Array.make (Tomography.n_nodes data) Float.nan);
      telemetry = reg }
  in
  let result = Infer.run ~rng:(Rng.create 5) ~config data in
  Alcotest.(check int) "no run survives" 0 (List.length result.Infer.runs);
  List.iter
    (fun name ->
      match
        List.filter (String.starts_with ~prefix:(name ^ " "))
          result.Infer.warnings
      with
      | [ w ] ->
          let prefix = name ^ " disabled: diverged: " in
          Alcotest.(check bool) prefix true (String.starts_with ~prefix w)
      | ws -> Alcotest.failf "%s: %d warnings, want 1" name (List.length ws))
    [ "MH"; "HMC" ];
  Alcotest.(check int) "one warning per sampler" 2
    (List.length result.Infer.warnings);
  (match Infer.status result with
  | Because_recover.Supervise.Degraded ws ->
      Alcotest.(check (list string)) "degraded with the warnings"
        result.Infer.warnings ws
  | _ -> Alcotest.fail "expected a Degraded status");
  Alcotest.(check (option int)) "no restart counter" None
    (Because_telemetry.Snapshot.counter
       (Because_telemetry.Registry.snapshot reg)
       "mcmc.restarts")

let test_combined_chain_length () =
  let result = run_identifiable () in
  Alcotest.(check int) "pooled draws" 1200
    (Because_mcmc.Chain.length (Infer.combined_chain result))

let chains_equal a b =
  Because_mcmc.Chain.length a = Because_mcmc.Chain.length b
  && Because_mcmc.Chain.dim a = Because_mcmc.Chain.dim b
  &&
  let equal = ref true in
  for k = 0 to Because_mcmc.Chain.length a - 1 do
    let da = Because_mcmc.Chain.get a k and db = Because_mcmc.Chain.get b k in
    Array.iteri (fun i v -> if not (Float.equal v db.(i)) then equal := false) da
  done;
  !equal

let multi_chain_config = { small_config with Infer.n_chains = 2 }

let test_jobs_bit_identical () =
  (* The whole point of pre-split per-task generators: fanning the sampler
     tasks over 4 domains must reproduce the sequential run bit for bit —
     same chains, same acceptance rates, same warnings, same order. *)
  let data = Tomography.of_observations identifiable_observations in
  let run jobs =
    Infer.run ~rng:(Rng.create 21)
      ~config:{ multi_chain_config with Infer.jobs }
      data
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check int) "same run count" (List.length seq.Infer.runs)
    (List.length par.Infer.runs);
  List.iter2
    (fun (a : Infer.sampler_run) (b : Infer.sampler_run) ->
      Alcotest.(check string) "same sampler" a.Infer.name b.Infer.name;
      Alcotest.(check int) "same chain index" a.Infer.chain_index
        b.Infer.chain_index;
      Alcotest.(check (float 0.0)) "same acceptance" a.Infer.acceptance
        b.Infer.acceptance;
      Alcotest.(check bool) "bit-identical chain" true
        (chains_equal a.Infer.chain b.Infer.chain))
    seq.Infer.runs par.Infer.runs;
  Alcotest.(check (list string)) "same warnings" seq.Infer.warnings
    par.Infer.warnings

let test_single_chain_stream_unchanged () =
  (* n_chains = 1 must reproduce a hand-split run from the same seed: one
     split per sampler for the sampled coordinates, then — the dataset has
     an exact set (AS 7, on clean paths only) — one per sampler for the
     exact draws, nothing else. *)
  let data = Tomography.of_observations identifiable_observations in
  let rng = Rng.create 33 in
  let result = Infer.run ~rng ~config:small_config data in
  let s = Infer.split small_config data in
  Alcotest.(check (list int)) "AS 7 is exact" [ 7 ]
    (List.map
       (fun i -> Because_bgp.Asn.to_int (Tomography.node data i))
       (Array.to_list s.Infer.exact));
  let streams = Rng.split_n (Rng.create 33) 4 in
  let r =
    Because_mcmc.Metropolis.run_single_site ~rng:streams.(0)
      ~n_samples:small_config.Infer.n_samples
      ~burn_in:small_config.Infer.burn_in
      (Because.Model.target (Option.get s.Infer.sampled))
  in
  let mh =
    List.find (fun (x : Infer.sampler_run) -> x.Infer.name = "MH")
      result.Infer.runs
  in
  let sampled = r.Because_mcmc.Metropolis.chain in
  let same = ref true in
  for k = 0 to Chain.length sampled - 1 do
    Array.iteri
      (fun ci i ->
        if Chain.value sampled k ci <> Chain.value mh.Infer.chain k i then
          same := false)
      s.Infer.coupled;
    Array.iteri
      (fun e i ->
        let a, b = s.Infer.exact_beta.(e) in
        if Because_stats.Dist.beta streams.(2) ~a ~b
           <> Chain.value mh.Infer.chain k i
        then same := false)
      s.Infer.exact
  done;
  Alcotest.(check bool) "MH chain matches a hand-split run" true !same

let test_multi_chain_runs () =
  let data = Tomography.of_observations identifiable_observations in
  let result = Infer.run ~rng:(Rng.create 21) ~config:multi_chain_config data in
  Alcotest.(check (list string)) "two chains per sampler"
    [ "MH"; "MH"; "HMC"; "HMC" ]
    (List.map (fun (r : Infer.sampler_run) -> r.Infer.name) result.Infer.runs);
  Alcotest.(check (list int)) "chain indices" [ 0; 1; 0; 1 ]
    (List.map
       (fun (r : Infer.sampler_run) -> r.Infer.chain_index)
       result.Infer.runs);
  Alcotest.(check int) "pooled draws" (600 * 4)
    (Because_mcmc.Chain.length (Infer.combined_chain result))

let test_rhat_diagnostic () =
  let data = Tomography.of_observations identifiable_observations in
  let result = Infer.run ~rng:(Rng.create 21) ~config:multi_chain_config data in
  let rhats = Infer.r_hat result in
  Alcotest.(check (list string)) "one entry per sampler" [ "MH"; "HMC" ]
    (List.map fst rhats);
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s converged (R-hat %.3f)" name r)
        true
        (Float.is_finite r && r < 1.2))
    rhats

let test_infer_rejects_bad_parallel_config () =
  let data = Tomography.of_observations identifiable_observations in
  let rejects config =
    try
      ignore (Infer.run ~rng:(Rng.create 1) ~config data);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "jobs = 0" true
    (rejects { small_config with Infer.jobs = 0 });
  Alcotest.(check bool) "n_chains = 0" true
    (rejects { small_config with Infer.n_chains = 0 })

let test_certainty () =
  let result = run_identifiable () in
  let marginals = Posterior.combined result in
  Array.iter
    (fun (m : Posterior.marginal) ->
      Alcotest.(check bool) "certainty = 1 - width" true
        (Float.abs (m.Posterior.certainty -. (1.0 -. Hdpi.width m.Posterior.hdpi))
        < 1e-12))
    marginals

(* Categorisation boundaries (Table 1). *)
let test_categorize_mean () =
  let cases =
    [ (0.0, 1); (0.14, 1); (0.15, 2); (0.29, 2); (0.3, 3); (0.69, 3);
      (0.7, 4); (0.84, 4); (0.85, 5); (1.0, 5) ]
  in
  List.iter
    (fun (mean, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "mean %.2f" mean)
        expected
        (Categorize.to_int (Categorize.of_mean mean)))
    cases

let test_categorize_hdpi () =
  let check lo hi expected =
    Alcotest.(check int)
      (Printf.sprintf "[%.2f,%.2f]" lo hi)
      expected
      (Categorize.to_int (Categorize.of_hdpi { Hdpi.lo; hi }))
  in
  check 0.0 0.1 1;   (* confidently low *)
  check 0.05 0.25 2; (* low-ish *)
  check 0.2 0.8 3;   (* wide: uncertain *)
  check 0.72 0.8 4;  (* confidently highish *)
  check 0.9 1.0 5    (* confidently high *)

let test_categorize_max_flag () =
  Alcotest.(check int) "max" 4
    (Categorize.to_int (Categorize.max_ Categorize.C4 Categorize.C2));
  Alcotest.(check bool) "damping" true (Categorize.damping Categorize.C4);
  Alcotest.(check bool) "not damping" false (Categorize.damping Categorize.C3)

let test_shares () =
  let shares = Categorize.shares [ Categorize.C1; Categorize.C1; Categorize.C5; Categorize.C3 ] in
  match shares with
  | [ (_, c1, s1); (_, c2, _); (_, c3, _); (_, c4, _); (_, _c5, s5) ] ->
      Alcotest.(check int) "c1 count" 2 c1;
      Alcotest.(check (float 1e-9)) "c1 share" 0.5 s1;
      Alcotest.(check int) "c2" 0 c2;
      Alcotest.(check int) "c3" 1 c3;
      Alcotest.(check int) "c4" 0 c4;
      Alcotest.(check (float 1e-9)) "c5 share" 0.25 s5
  | _ -> Alcotest.fail "five rows expected"

let test_assign_flags_damper () =
  let result = run_identifiable () in
  let categories = Categorize.assign result in
  let damper_cat = List.assoc (asn 1) categories in
  Alcotest.(check bool) "damper flagged 4/5" true (Categorize.damping damper_cat);
  let clean_cat = List.assoc (asn 7) categories in
  Alcotest.(check bool) "clean not flagged" false (Categorize.damping clean_cat)

(* Pinpointing: an inconsistent damper (AS1) that damps only half its paths
   while each positive path has no other candidate. *)
let inconsistent_observations =
  List.concat
    (List.init 12 (fun k ->
         let leaf = 20 + k in
         if k mod 2 = 0 then [ (path [ leaf; 1; 99 ], true) ]
         else [ (path [ leaf; 1; 99 ], false) ]))
  @ (* abundant unrelated clean traffic pins the leaves down, mirroring the
       paper's AS 701 case where every other on-path AS has clean data *)
  List.concat
    (List.init 12 (fun k ->
         [
           (path [ 20 + k; 7; 99 ], false);
           (path [ 20 + k; 8; 99 ], false);
           (path [ 20 + k; 9; 99 ], false);
         ]))

let test_pinpoint_promotes_inconsistent () =
  let data = Tomography.of_observations inconsistent_observations in
  let result =
    Infer.run ~rng:(Rng.create 11)
      ~config:
        { small_config with
          node_priors = [ (asn 99, Because.Prior.Near_zero) ] }
      data
  in
  let step1 = Categorize.assign result in
  let cat1 = List.assoc (asn 1) step1 in
  (* With half its paths clean, AS1's mean sits mid-low: not flagged yet. *)
  let promos = Pinpoint.promotions result ~categories:step1 in
  let categories = Pinpoint.apply step1 promos in
  Alcotest.(check bool)
    (Printf.sprintf "promoted from category %d" (Categorize.to_int cat1))
    true
    (Categorize.damping (List.assoc (asn 1) categories));
  Alcotest.(check bool) "promotion recorded" true
    (List.exists (fun (p : Pinpoint.promotion) -> Asn.equal p.Pinpoint.asn (asn 1)) promos)

let test_pinpoint_min_support () =
  let data = Tomography.of_observations inconsistent_observations in
  let result = Infer.run ~rng:(Rng.create 11) ~config:small_config data in
  let step1 = Categorize.assign result in
  let lax = Pinpoint.promotions ~min_support:1 result ~categories:step1 in
  let strict = Pinpoint.promotions ~min_support:1000 result ~categories:step1 in
  Alcotest.(check bool) "lax fires" true (lax <> []);
  Alcotest.(check (list string)) "absurd support never fires" []
    (List.map (fun (p : Pinpoint.promotion) -> Asn.to_string p.Pinpoint.asn) strict)

let test_pinpoint_skips_explained_paths () =
  (* Every positive path contains an already-flagged damper: no promotions. *)
  let result = run_identifiable () in
  let categories = Categorize.assign result in
  let promos = Pinpoint.promotions result ~categories in
  Alcotest.(check (list string)) "nothing to promote" []
    (List.map (fun (p : Pinpoint.promotion) -> Asn.to_string p.Pinpoint.asn) promos)

(* Posterior predictive checks. *)
let test_predictive_scores () =
  let result = run_identifiable () in
  let p = Because_baselines.Predictive.evaluate result in
  (* The identifiable dataset is almost deterministic: predictions should be
     sharp and well calibrated. *)
  Alcotest.(check bool)
    (Printf.sprintf "low Brier (%.3f)" p.Because_baselines.Predictive.brier)
    true
    (p.Because_baselines.Predictive.brier < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "log score sane (%.3f)" p.Because_baselines.Predictive.log_score)
    true
    (p.Because_baselines.Predictive.log_score > -0.5);
  Alcotest.(check int) "one prediction per distinct path" 10
    (List.length p.Because_baselines.Predictive.predictions);
  Alcotest.(check int) "counts cover every observation" 20
    (List.fold_left
       (fun acc (pr : Because_baselines.Predictive.path_prediction) ->
         acc + pr.Because_baselines.Predictive.n_rfd + pr.Because_baselines.Predictive.n_clean)
       0 p.Because_baselines.Predictive.predictions);
  List.iter
    (fun (pr : Because_baselines.Predictive.path_prediction) ->
      Alcotest.(check bool) "probability in [0,1]" true
        (pr.Because_baselines.Predictive.probability >= 0.0
        && pr.Because_baselines.Predictive.probability <= 1.0);
      (* positive paths predicted above negative ones *)
      if pr.Because_baselines.Predictive.n_rfd > 0 then
        Alcotest.(check bool) "positives scored high" true
          (pr.Because_baselines.Predictive.probability > 0.5))
    p.Because_baselines.Predictive.predictions

let test_predictive_calibration_bins () =
  let result = run_identifiable () in
  let p = Because_baselines.Predictive.evaluate ~bins:5 result in
  Alcotest.(check int) "bin count" 5
    (List.length p.Because_baselines.Predictive.calibration);
  let total =
    List.fold_left
      (fun acc (b : Because_baselines.Predictive.calibration_bin) ->
        acc + b.Because_baselines.Predictive.count)
      0 p.Because_baselines.Predictive.calibration
  in
  Alcotest.(check int) "bins partition the paths" 20 total

let test_path_probability_bounds () =
  let data = Tomography.of_observations [ (path [ 1; 2 ], true) ] in
  let chain =
    Because_mcmc.Chain.of_samples [| [| 0.5; 0.5 |]; [| 1.0; 0.0 |] |]
  in
  (* draw 1: 1 − 0.25 = 0.75; draw 2: 1 − 0 = 1.0 → mean 0.875 *)
  Alcotest.(check (float 1e-9)) "hand computed" 0.875
    (Because_baselines.Predictive.path_probability data chain 0)

(* Collapsing duplicate observations keeps pinpointing and predictive
   scoring per observation.  Both build the result by hand so the chain —
   and thus every probability — is fixed. *)
let hand_result observations draws =
  let data = Tomography.of_observations observations in
  { Infer.model = Because.Model.create data;
    runs =
      [ { Infer.name = "MH"; chain_index = 0;
          chain = Because_mcmc.Chain.of_samples draws; acceptance = 0.5 } ];
    warnings = [];
    aborted = [] }

let test_pinpoint_counts_repeated_observations () =
  (* AS1 is every draw's most likely damper on the RFD path 1-2, and no AS
     is flagged, so the path is unexplained. *)
  let draws = Array.init 20 (fun k -> [| 0.6 +. (0.01 *. float_of_int k); 0.1 |]) in
  let categories = [ (asn 1, Categorize.C1); (asn 2, Categorize.C1) ] in
  let promoted observations =
    List.map
      (fun (p : Pinpoint.promotion) -> Asn.to_int p.Pinpoint.asn)
      (Pinpoint.promotions ~min_support:2 (hand_result observations draws)
         ~categories)
  in
  Alcotest.(check (list int)) "observed twice: two supports" [ 1 ]
    (promoted [ (path [ 1; 2 ], true); (path [ 1; 2 ], true) ]);
  Alcotest.(check (list int)) "observed once: one support" []
    (promoted [ (path [ 1; 2 ], true) ]);
  Alcotest.(check (list int)) "clean repeats add no support" []
    (promoted [ (path [ 1; 2 ], true); (path [ 1; 2 ], false) ])

let test_predictive_per_observation () =
  let rng = Rng.create 17 in
  let bases = [| [ 1; 2 ]; [ 2; 3; 4 ]; [ 4 ]; [ 1; 5 ] |] in
  let observations =
    List.init 60 (fun _ ->
        (path bases.(Rng.int rng (Array.length bases)), Rng.bool rng))
  in
  let result =
    hand_result observations
      (Array.init 50 (fun _ -> Array.init 5 (fun _ -> Rng.float rng)))
  in
  let data = Infer.dataset result in
  let chain = Infer.combined_chain result in
  (* Per observation: mean over draws of 1 − ∏ (1 − pᵢ) on its own path. *)
  let prob (p, _) =
    let n = Because_mcmc.Chain.length chain in
    let acc = ref 0.0 in
    for k = 0 to n - 1 do
      acc :=
        !acc
        +. 1.0
        -. List.fold_left
             (fun q a ->
               let i = Option.get (Tomography.index_of data a) in
               q *. (1.0 -. Because_mcmc.Chain.value chain k i))
             1.0 p
    done;
    !acc /. float_of_int n
  in
  let mean f =
    List.fold_left (fun acc o -> acc +. f o) 0.0 observations
    /. float_of_int (List.length observations)
  in
  let brier =
    mean (fun ((_, y) as o) ->
        let d = prob o -. if y then 1.0 else 0.0 in
        d *. d)
  in
  let log_score =
    mean (fun ((_, y) as o) ->
        Float.log (Float.max 1e-9 (if y then prob o else 1.0 -. prob o)))
  in
  let p = Because_baselines.Predictive.evaluate result in
  Alcotest.(check (float 1e-12)) "Brier" brier p.Because_baselines.Predictive.brier;
  Alcotest.(check (float 1e-12)) "log score" log_score
    p.Because_baselines.Predictive.log_score;
  Alcotest.(check int) "bins hold every observation" 60
    (List.fold_left
       (fun acc (b : Because_baselines.Predictive.calibration_bin) ->
         acc + b.Because_baselines.Predictive.count)
       0 p.Because_baselines.Predictive.calibration)

(* Evaluate. *)
let test_evaluate_counts () =
  let set ints = Asn.Set.of_list (List.map asn ints) in
  let m =
    Evaluate.of_sets
      ~predicted:(set [ 1; 2; 3 ])
      ~truth:(set [ 2; 3; 4 ])
      ~universe:(set [ 1; 2; 3; 4; 5; 6 ])
  in
  Alcotest.(check int) "tp" 2 m.Evaluate.true_positives;
  Alcotest.(check int) "fp" 1 m.Evaluate.false_positives;
  Alcotest.(check int) "fn" 1 m.Evaluate.false_negatives;
  Alcotest.(check int) "tn" 2 m.Evaluate.true_negatives;
  Alcotest.(check (float 1e-9)) "precision" (2.0 /. 3.0) m.Evaluate.precision;
  Alcotest.(check (float 1e-9)) "recall" (2.0 /. 3.0) m.Evaluate.recall

let test_evaluate_universe_filter () =
  let set ints = Asn.Set.of_list (List.map asn ints) in
  let m =
    Evaluate.of_sets
      ~predicted:(set [ 1; 99 ])  (* 99 outside the universe *)
      ~truth:(set [ 1; 98 ])      (* 98 outside too *)
      ~universe:(set [ 1; 2 ])
  in
  Alcotest.(check int) "tp" 1 m.Evaluate.true_positives;
  Alcotest.(check int) "fp" 0 m.Evaluate.false_positives;
  Alcotest.(check (float 0.0)) "precision" 1.0 m.Evaluate.precision

let test_evaluate_degenerate () =
  let empty = Asn.Set.empty in
  let universe = Asn.Set.singleton (asn 1) in
  let m = Evaluate.of_sets ~predicted:empty ~truth:empty ~universe in
  Alcotest.(check (float 0.0)) "vacuous precision" 1.0 m.Evaluate.precision;
  Alcotest.(check (float 0.0)) "vacuous recall" 1.0 m.Evaluate.recall

let test_damping_set () =
  let categories = [ (asn 1, Categorize.C5); (asn 2, Categorize.C3); (asn 3, Categorize.C4) ] in
  let s = Evaluate.damping_set categories in
  Alcotest.(check (list int)) "4s and 5s" [ 1; 3 ]
    (List.map Asn.to_int (Asn.Set.elements s))

let suite =
  ( "inference",
    [
      Alcotest.test_case "runs both samplers" `Slow test_infer_runs_both_samplers;
      Alcotest.test_case "identifies the damper" `Slow test_infer_identifies_damper;
      Alcotest.test_case "MH and HMC agree" `Slow test_mh_hmc_agree;
      Alcotest.test_case "a diverged chain runs once" `Quick
        test_diverged_chain_runs_once;
      Alcotest.test_case "combined chain" `Slow test_combined_chain_length;
      Alcotest.test_case "jobs=4 bit-identical to jobs=1" `Slow
        test_jobs_bit_identical;
      Alcotest.test_case "single-chain RNG stream unchanged" `Slow
        test_single_chain_stream_unchanged;
      Alcotest.test_case "multi-chain runs" `Slow test_multi_chain_runs;
      Alcotest.test_case "R-hat across chains" `Slow test_rhat_diagnostic;
      Alcotest.test_case "parallel config validation" `Quick
        test_infer_rejects_bad_parallel_config;
      Alcotest.test_case "certainty definition" `Slow test_certainty;
      Alcotest.test_case "categorise by mean (Table 1)" `Quick test_categorize_mean;
      Alcotest.test_case "categorise by HDPI" `Quick test_categorize_hdpi;
      Alcotest.test_case "max flag" `Quick test_categorize_max_flag;
      Alcotest.test_case "shares" `Quick test_shares;
      Alcotest.test_case "assign flags damper" `Slow test_assign_flags_damper;
      Alcotest.test_case "pinpoint promotes inconsistent damper" `Slow
        test_pinpoint_promotes_inconsistent;
      Alcotest.test_case "pinpoint min support" `Slow test_pinpoint_min_support;
      Alcotest.test_case "pinpoint skips explained" `Slow
        test_pinpoint_skips_explained_paths;
      Alcotest.test_case "pinpoint counts repeated observations" `Quick
        test_pinpoint_counts_repeated_observations;
      Alcotest.test_case "predictive scores" `Slow test_predictive_scores;
      Alcotest.test_case "predictive per observation" `Quick
        test_predictive_per_observation;
      Alcotest.test_case "predictive calibration bins" `Slow
        test_predictive_calibration_bins;
      Alcotest.test_case "path probability" `Quick test_path_probability_bounds;
      Alcotest.test_case "evaluate counts" `Quick test_evaluate_counts;
      Alcotest.test_case "evaluate universe filter" `Quick
        test_evaluate_universe_filter;
      Alcotest.test_case "evaluate degenerate" `Quick test_evaluate_degenerate;
      Alcotest.test_case "damping set" `Quick test_damping_set;
    ] )

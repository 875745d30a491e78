(* Tomography, Prior, Model — the BeCAUSe core. *)
open Because_bgp
module Tomography = Because.Tomography
module Prior = Because.Prior
module Model = Because.Model
module Rng = Because_stats.Rng

let asn = Asn.of_int
let path ints = List.map asn ints

let obs =
  [ (path [ 1; 2; 3 ], true); (path [ 1; 4 ], false); (path [ 2; 4 ], true) ]

let test_tomography_indexing () =
  let data = Tomography.of_observations obs in
  Alcotest.(check int) "nodes" 4 (Tomography.n_nodes data);
  Alcotest.(check int) "paths" 3 (Tomography.n_paths data);
  (* first-appearance order: 1,2,3,4 *)
  Alcotest.(check int) "node 0" 1 (Asn.to_int (Tomography.node data 0));
  Alcotest.(check int) "node 3" 4 (Asn.to_int (Tomography.node data 3));
  Alcotest.(check (option int)) "index of AS2" (Some 1)
    (Tomography.index_of data (asn 2));
  Alcotest.(check (option int)) "unknown" None
    (Tomography.index_of data (asn 99));
  Alcotest.(check (pair int int)) "path 0 counts" (1, 0)
    (Tomography.n_rfd data 0, Tomography.n_clean data 0);
  Alcotest.(check (pair int int)) "path 1 counts" (0, 1)
    (Tomography.n_rfd data 1, Tomography.n_clean data 1)

let test_tomography_incidence () =
  let data = Tomography.of_observations obs in
  let through asn_int =
    let i = Option.get (Tomography.index_of data (asn asn_int)) in
    Array.to_list (Tomography.paths_through data i)
  in
  Alcotest.(check (list int)) "AS1 on paths 0,1" [ 0; 1 ] (through 1);
  Alcotest.(check (list int)) "AS2 on paths 0,2" [ 0; 2 ] (through 2);
  Alcotest.(check (list int)) "AS4 on paths 1,2" [ 1; 2 ] (through 4)

let test_tomography_share () =
  let data = Tomography.of_observations obs in
  Alcotest.(check (float 1e-9)) "positive share" (2.0 /. 3.0)
    (Tomography.positive_share data);
  Alcotest.(check int) "rfd count" 2 (Tomography.rfd_path_count data)

let test_tomography_invalid () =
  Alcotest.(check bool) "empty obs" true
    (try ignore (Tomography.of_observations []); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty path" true
    (try ignore (Tomography.of_observations [ ([], true) ]); false
     with Invalid_argument _ -> true)

let test_prior_log_pdfs () =
  Alcotest.(check (float 0.0)) "uniform inside" 0.0 (Prior.log_pdf Prior.Uniform 0.3);
  Alcotest.(check (float 0.0)) "uniform outside" neg_infinity
    (Prior.log_pdf Prior.Uniform 1.5);
  (* Beta(1,1) = uniform on (0,1) *)
  Alcotest.(check (float 1e-9)) "beta(1,1)" 0.0
    (Prior.log_pdf (Prior.Beta { a = 1.0; b = 1.0 }) 0.42);
  (* near-zero prior prefers small p *)
  Alcotest.(check bool) "near-zero decreasing" true
    (Prior.log_pdf Prior.Near_zero 0.05 > Prior.log_pdf Prior.Near_zero 0.5)

let test_prior_grad () =
  (* finite-difference check of the Beta gradient *)
  let prior = Prior.Beta { a = 2.0; b = 3.0 } in
  let eps = 1e-6 in
  List.iter
    (fun p ->
      let fd = (Prior.log_pdf prior (p +. eps) -. Prior.log_pdf prior (p -. eps)) /. (2.0 *. eps) in
      let g = Prior.grad_log_pdf prior p in
      Alcotest.(check bool)
        (Printf.sprintf "grad at %.2f (fd %.4f vs %.4f)" p fd g)
        true
        (Float.abs (fd -. g) < 1e-3))
    [ 0.2; 0.5; 0.8 ]

(* Hand-computable likelihood: one positive path over two nodes. *)
let test_likelihood_hand_computed () =
  let data = Tomography.of_observations [ (path [ 1; 2 ], true) ] in
  let model = Model.create ~prior:Prior.Uniform data in
  let p = [| 0.5; 0.5 |] in
  (* P = 1 − q1·q2 = 1 − 0.25 = 0.75 *)
  Alcotest.(check (float 1e-9)) "positive path" (Float.log 0.75)
    (Model.log_likelihood model p);
  let data2 = Tomography.of_observations [ (path [ 1; 2 ], false) ] in
  let model2 = Model.create ~prior:Prior.Uniform data2 in
  (* P = q1·q2 = 0.25 *)
  Alcotest.(check (float 1e-9)) "negative path" (Float.log 0.25)
    (Model.log_likelihood model2 p)

let test_likelihood_factorises () =
  let data = Tomography.of_observations obs in
  let model = Model.create ~prior:Prior.Uniform data in
  let p = [| 0.3; 0.1; 0.6; 0.2 |] in
  let expected =
    Float.log (1.0 -. (0.7 *. 0.9 *. 0.4))   (* path 1-2-3 positive *)
    +. Float.log (0.7 *. 0.8)                 (* path 1-4 negative *)
    +. Float.log (1.0 -. (0.9 *. 0.8))        (* path 2-4 positive *)
  in
  Alcotest.(check (float 1e-9)) "matches closed form" expected
    (Model.log_likelihood model p)

let test_posterior_includes_prior () =
  let data = Tomography.of_observations obs in
  let prior = Prior.Beta { a = 2.0; b = 2.0 } in
  let model = Model.create ~prior data in
  let p = [| 0.3; 0.1; 0.6; 0.2 |] in
  Alcotest.(check (float 1e-9)) "posterior = likelihood + prior"
    (Model.log_likelihood model p +. Model.log_prior model p)
    (Model.log_posterior model p)

let test_node_prior_override () =
  let data = Tomography.of_observations obs in
  let model =
    Model.create ~prior:Prior.Uniform
      ~node_priors:[ (asn 3, Prior.Near_zero) ]
      data
  in
  let base = Model.create ~prior:Prior.Uniform data in
  let p = [| 0.3; 0.1; 0.6; 0.2 |] in
  Alcotest.(check (float 1e-9)) "override changes prior only"
    (Model.log_prior model p -. Prior.log_pdf Prior.Near_zero 0.6)
    (Model.log_prior base p -. Prior.log_pdf Prior.Uniform 0.6)

(* The §7.2 error-aware likelihood. *)

let test_epsilon_zero_equivalence () =
  let data = Tomography.of_observations obs in
  let base = Model.create ~prior:Prior.Uniform data in
  let with_eps = Model.create ~prior:Prior.Uniform ~false_negative_rate:0.0 data in
  let p = [| 0.3; 0.1; 0.6; 0.2 |] in
  Alcotest.(check (float 1e-12)) "identical at eps=0"
    (Model.log_posterior base p)
    (Model.log_posterior with_eps p)

let test_epsilon_softens_clean_paths () =
  (* With a false-negative rate, a clean label is weaker evidence: the
     likelihood at high p is less punishing. *)
  let data = Tomography.of_observations [ (path [ 1 ], false) ] in
  let strict = Model.create ~prior:Prior.Uniform data in
  let lenient =
    Model.create ~prior:Prior.Uniform ~false_negative_rate:0.3 data
  in
  let p = [| 0.9 |] in
  Alcotest.(check bool) "lenient model dominates" true
    (Model.log_likelihood lenient p > Model.log_likelihood strict p);
  (* and a positive label costs the constant ln(1−ε) *)
  let data_pos = Tomography.of_observations [ (path [ 1 ], true) ] in
  let strict_pos = Model.create ~prior:Prior.Uniform data_pos in
  let lenient_pos =
    Model.create ~prior:Prior.Uniform ~false_negative_rate:0.3 data_pos
  in
  Alcotest.(check (float 1e-9)) "positive label offset"
    (Model.log_likelihood strict_pos p +. Float.log 0.7)
    (Model.log_likelihood lenient_pos p)

let test_epsilon_invalid () =
  let data = Tomography.of_observations obs in
  Alcotest.(check bool) "rejects eps >= 1" true
    (try ignore (Model.create ~false_negative_rate:1.0 data); false
     with Invalid_argument _ -> true)

let random_dataset rng ~nodes ~paths =
  let observations =
    List.init paths (fun _ ->
        let len = 2 + Rng.int rng 4 in
        let used = Array.init len (fun _ -> 1 + Rng.int rng nodes) in
        let distinct = List.sort_uniq Int.compare (Array.to_list used) in
        (path distinct, Rng.bool rng))
  in
  Tomography.of_observations observations

let qcheck_delta_matches_full =
  QCheck.Test.make ~name:"single-site delta equals full recompute" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 1) in
      let data = random_dataset rng ~nodes:8 ~paths:15 in
      let epsilon = if seed mod 2 = 0 then 0.0 else 0.05 in
      let model = Model.create ~false_negative_rate:epsilon data in
      let n = Tomography.n_nodes data in
      let p = Array.init n (fun _ -> 0.05 +. (0.9 *. Rng.float rng)) in
      let i = Rng.int rng n in
      let v = 0.05 +. (0.9 *. Rng.float rng) in
      let delta = Model.delta_log_posterior model p i v in
      let p' = Array.copy p in
      p'.(i) <- v;
      let full = Model.log_posterior model p' -. Model.log_posterior model p in
      Float.abs (delta -. full) < 1e-8)

let qcheck_cache_matches_stateless =
  QCheck.Test.make
    ~name:"cached delta tracks the stateless recompute through commits"
    ~count:40 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 400) in
      let data = random_dataset rng ~nodes:8 ~paths:15 in
      let epsilon = if seed mod 2 = 0 then 0.0 else 0.05 in
      let model = Model.create ~false_negative_rate:epsilon data in
      let n = Tomography.n_nodes data in
      let p = Array.init n (fun _ -> 0.05 +. (0.9 *. Rng.float rng)) in
      let cache = Model.make_cache model p in
      let ok = ref true in
      (* Random walk of proposals: every cached delta must match the
         stateless reference to 1e-9, and accepted commits must keep the
         sufficient statistics in sync with the evolving point. *)
      for _ = 1 to 60 do
        let i = Rng.int rng n in
        let v = 0.05 +. (0.9 *. Rng.float rng) in
        let cached = cache.Because_mcmc.Target.cached_delta i v in
        let reference = Model.delta_log_posterior model p i v in
        if Float.abs (cached -. reference) > 1e-9 then ok := false;
        if Rng.bool rng then begin
          cache.Because_mcmc.Target.cached_commit i v;
          p.(i) <- v
        end
      done;
      !ok)

let test_cached_target_statistically_equivalent () =
  (* The cached and stateless targets describe the same posterior: two MH
     runs from the same seed must land on the same marginal means (they are
     not bit-identical — the incremental S_j differs from a re-sum in the
     last bits, which is enough to flip an occasional accept). *)
  let rng = Rng.create 31 in
  let data = random_dataset rng ~nodes:6 ~paths:40 in
  let model = Model.create data in
  let sample target =
    let r =
      Because_mcmc.Metropolis.run_single_site ~rng:(Rng.create 77)
        ~n_samples:2000 ~burn_in:500 target
    in
    r.Because_mcmc.Metropolis.chain
  in
  let cached = sample (Model.target model) in
  let stateless = sample (Model.target ~cached:false model) in
  for i = 0 to Tomography.n_nodes data - 1 do
    let mean c =
      Because_stats.Summary.mean (Because_mcmc.Chain.marginal c i)
    in
    Alcotest.(check bool)
      (Printf.sprintf "node %d means agree (%.3f vs %.3f)" i (mean cached)
         (mean stateless))
      true
      (Float.abs (mean cached -. mean stateless) < 0.06)
  done

let qcheck_gradient_matches_fd =
  QCheck.Test.make ~name:"analytic gradient matches finite differences"
    ~count:30 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 100) in
      let data = random_dataset rng ~nodes:6 ~paths:10 in
      let epsilon = if seed mod 2 = 0 then 0.0 else 0.08 in
      let model = Model.create ~false_negative_rate:epsilon data in
      let target = Model.target model in
      let n = Tomography.n_nodes data in
      let p = Array.init n (fun _ -> 0.2 +. (0.6 *. Rng.float rng)) in
      match Because_mcmc.Target.check_gradient target ~at:p ~eps:1e-6 ~tol:1e-3 with
      | Ok () -> true
      | Error _ -> false)

let qcheck_likelihood_is_log_probability =
  QCheck.Test.make ~name:"log likelihood never exceeds 0" ~count:80
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 300) in
      let data = random_dataset rng ~nodes:8 ~paths:12 in
      let model = Model.create ~prior:Prior.Uniform data in
      let n = Tomography.n_nodes data in
      let p = Array.init n (fun _ -> Rng.float rng) in
      Model.log_likelihood model p <= 1e-12)

let qcheck_likelihood_monotone_on_positive =
  QCheck.Test.make
    ~name:"raising p on a positive-only node raises the likelihood" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 200) in
      (* one positive path through node 1 *)
      let data = Tomography.of_observations [ (path [ 1; 2 ], true) ] in
      let model = Model.create ~prior:Prior.Uniform data in
      let base = 0.1 +. (0.4 *. Rng.float rng) in
      let higher = base +. 0.2 in
      let ll v = Model.log_likelihood model [| v; 0.3 |] in
      ll higher > ll base)

(* Count-collapsed dataset ≡ per-observation model.  Observations draw from
   a handful of base paths with random labels, so most are duplicates and
   some paths carry both labels.  The reference below walks the raw
   observation list, one term per observation, as the likelihood is
   written in the paper. *)
let duplicate_heavy rng =
  let bases =
    List.init (2 + Rng.int rng 5) (fun _ ->
        List.sort_uniq Int.compare
          (List.init (1 + Rng.int rng 4) (fun _ -> 1 + Rng.int rng 8)))
  in
  let bases = Array.of_list bases in
  List.init (10 + Rng.int rng 40) (fun _ ->
      (path bases.(Rng.int rng (Array.length bases)), Rng.bool rng))

let ref_log_q p data path =
  List.fold_left
    (fun acc a ->
      let i = Option.get (Tomography.index_of data a) in
      acc +. Float.log1p (-.p.(i)))
    0.0 path

let ref_log_posterior ~epsilon ~prior data observations p =
  let ll =
    List.fold_left
      (fun acc (path, label) ->
        let s = ref_log_q p data path in
        acc
        +.
        if label then Float.log (1.0 -. epsilon) +. Float.log (-.Float.expm1 s)
        else Float.log (epsilon +. ((1.0 -. epsilon) *. Float.exp s)))
      0.0 observations
  in
  Array.fold_left (fun acc v -> acc +. Prior.log_pdf prior v) ll p

let ref_grad ~epsilon ~prior data observations p =
  let g = Array.map (Prior.grad_log_pdf prior) p in
  List.iter
    (fun (path, label) ->
      let s = ref_log_q p data path in
      let coef =
        if label then 1.0 /. Float.expm1 (-.s)
        else
          -.((1.0 -. epsilon) *. Float.exp s
            /. (epsilon +. ((1.0 -. epsilon) *. Float.exp s)))
      in
      List.iter
        (fun a ->
          let i = Option.get (Tomography.index_of data a) in
          g.(i) <- g.(i) +. (coef /. (1.0 -. p.(i))))
        path)
    observations;
  g

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let qcheck_collapsed_matches_per_observation =
  QCheck.Test.make
    ~name:"collapsed counts match the per-observation model" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 700) in
      let observations = duplicate_heavy rng in
      let data = Tomography.of_observations observations in
      let epsilon = if seed mod 2 = 0 then 0.0 else 0.1 in
      let prior = Prior.default in
      let model = Model.create ~prior ~false_negative_rate:epsilon data in
      let n = Tomography.n_nodes data in
      let p = Array.init n (fun _ -> 0.05 +. (0.9 *. Rng.float rng)) in
      let reference = ref_log_posterior ~epsilon ~prior data observations in
      let ok = ref true in
      let check b = if not b then ok := false in
      (* Counts and support are their per-observation definitions. *)
      let n_obs = List.length observations in
      let n_pos = List.length (List.filter snd observations) in
      check (Tomography.n_observations data = n_obs);
      check (Tomography.rfd_path_count data = n_pos);
      check
        (Tomography.positive_share data
        = float_of_int n_pos /. float_of_int n_obs);
      check
        (Tomography.n_paths data
        = List.length (List.sort_uniq compare (List.map fst observations)));
      for i = 0 to n - 1 do
        let a = Tomography.node data i in
        check
          (Tomography.support data i
          = List.length
              (List.filter (fun (path, _) -> List.mem a path) observations))
      done;
      (* Likelihood and gradient. *)
      check (close (Model.log_posterior model p) (reference p));
      let g = Model.grad_log_posterior model p in
      let g_ref = ref_grad ~epsilon ~prior data observations p in
      Array.iteri (fun i v -> check (close v g_ref.(i))) g;
      (* Cached deltas and commits along a random walk. *)
      let cache = Model.make_cache model p in
      for _ = 1 to 40 do
        let i = Rng.int rng n in
        let v = 0.05 +. (0.9 *. Rng.float rng) in
        let p' = Array.copy p in
        p'.(i) <- v;
        let expected = reference p' -. reference p in
        check (close (cache.Because_mcmc.Target.cached_delta i v) expected);
        check (close (Model.delta_log_posterior model p i v) expected);
        if Rng.bool rng then begin
          cache.Because_mcmc.Target.cached_commit i v;
          p.(i) <- v
        end
      done;
      !ok)

let suite =
  ( "core-model",
    [
      Alcotest.test_case "tomography indexing" `Quick test_tomography_indexing;
      Alcotest.test_case "tomography incidence" `Quick test_tomography_incidence;
      Alcotest.test_case "positive share" `Quick test_tomography_share;
      Alcotest.test_case "tomography invalid" `Quick test_tomography_invalid;
      Alcotest.test_case "prior log pdfs" `Quick test_prior_log_pdfs;
      Alcotest.test_case "prior gradient" `Quick test_prior_grad;
      Alcotest.test_case "likelihood hand computed" `Quick
        test_likelihood_hand_computed;
      Alcotest.test_case "likelihood factorises" `Quick test_likelihood_factorises;
      Alcotest.test_case "posterior = ll + prior" `Quick
        test_posterior_includes_prior;
      Alcotest.test_case "node prior override" `Quick test_node_prior_override;
      Alcotest.test_case "epsilon=0 equivalence" `Quick
        test_epsilon_zero_equivalence;
      Alcotest.test_case "epsilon softens clean labels" `Quick
        test_epsilon_softens_clean_paths;
      Alcotest.test_case "epsilon validation" `Quick test_epsilon_invalid;
      QCheck_alcotest.to_alcotest qcheck_likelihood_is_log_probability;
      QCheck_alcotest.to_alcotest qcheck_delta_matches_full;
      QCheck_alcotest.to_alcotest qcheck_cache_matches_stateless;
      QCheck_alcotest.to_alcotest qcheck_collapsed_matches_per_observation;
      Alcotest.test_case "cached target statistically equivalent" `Slow
        test_cached_target_statistically_equivalent;
      QCheck_alcotest.to_alcotest qcheck_gradient_matches_fd;
      QCheck_alcotest.to_alcotest qcheck_likelihood_monotone_on_positive;
    ] )

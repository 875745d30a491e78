(* Exact marginals of the ASs on no RFD-labeled path.

   At ε = 0 a clean observation of distinct path j contributes
   ∏ᵢ qᵢ^n_clean_j to the likelihood, which factors per AS.  An AS that lies
   on no path with an RFD label therefore has the closed-form posterior
   Beta(a, b + cᵢ), where Beta(a, b) is its prior and cᵢ the number of
   clean observations crossing it.  On the verify worlds 42–44 at the
   campaign's inference config, every such AS's marginal mean and 5/50/95 %
   quantiles must match that Beta within [k] Monte Carlo standard errors,
   for each sampler.  The MCSE comes from the chain's own effective sample
   size, for the mean and for the empirical CDF at each exact quantile
   x_q, which is compared with q. *)

open Because_bgp
module Sc = Because_scenario
module Tomography = Because.Tomography
module Infer = Because.Infer
module Prior = Because.Prior
module Chain = Because_mcmc.Chain
module Diagnostics = Because_mcmc.Diagnostics
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Summary = Because_stats.Summary

(* About 600 comparisons over the three worlds: with correct draws and an
   honest MCSE, the largest |z| exceeds 5 with probability ≈ 3e-4. *)
let k = 5.0

let verify_world seed =
  Sc.World.build
    { Sc.World.default_params with
      Sc.World.seed;
      n_vantage_hosts = 16;
      topology =
        { Because_topology.Generate.default_params with
          Because_topology.Generate.n_transit = 20;
          n_stub = 80 } }

(* The campaign config: [Infer.default_config], one chain per sampler. *)
let params =
  Sc.Campaign.with_jobs ~n_chains:1 ~sim_jobs:1
    { (Sc.Campaign.default_params ~update_interval:60.0) with
      Sc.Campaign.cycles = 2 }
    1

let campaigns =
  List.map
    (fun seed ->
      ( seed,
        lazy
          (let world = verify_world seed in
           (world, Sc.Campaign.run world params)) ))
    [ 42; 43; 44 ]

let beta_of = function
  | Prior.Uniform -> (1.0, 1.0)
  | Prior.Beta { a; b } -> (a, b)
  | Prior.Near_zero -> (1.0, 20.0)

let prior_of world asn =
  match List.assoc_opt asn (Sc.World.node_priors world) with
  | Some p -> p
  | None -> params.Sc.Campaign.infer_config.Infer.prior

(* Per node: whether it lies on a distinct path with an RFD label, and its
   clean count (a node listed twice on one path counts twice, as the
   likelihood does). *)
let rfd_and_clean data =
  let n = Tomography.n_nodes data in
  let on_rfd = Array.make n false and clean = Array.make n 0 in
  let off = Tomography.path_offsets data and nodes = Tomography.path_nodes data in
  for j = 0 to Tomography.n_paths data - 1 do
    for m = off.(j) to off.(j + 1) - 1 do
      let i = nodes.(m) in
      if Tomography.n_rfd data j > 0 then on_rfd.(i) <- true;
      clean.(i) <- clean.(i) + Tomography.n_clean data j
    done
  done;
  (on_rfd, clean)

let reference_draws = 20_000

(* Exact 5/50/95 % quantiles from a large i.i.d. Beta sample; their own
   Monte Carlo error enters the tolerance. *)
let reference_quantiles rng ~a ~b =
  let xs = Array.init reference_draws (fun _ -> Dist.beta rng ~a ~b) in
  List.map (fun q -> (q, Summary.quantile xs q)) [ 0.05; 0.5; 0.95 ]

let exact_set_matches seed () =
  let world, o = Lazy.force (List.assoc seed campaigns) in
  let result = Option.get o.Sc.Campaign.result in
  let data = Infer.dataset result in
  let on_rfd, clean = rfd_and_clean data in
  let rng = Rng.create (1000 + seed) in
  let failures = ref [] and checked = ref 0 and exact = ref 0 in
  for i = 0 to Tomography.n_nodes data - 1 do
    if not on_rfd.(i) then begin
      incr exact;
      let asn = Tomography.node data i in
      let a, b0 = beta_of (prior_of world asn) in
      let b = b0 +. float_of_int clean.(i) in
      let mean = a /. (a +. b) in
      let sd = Float.sqrt (a *. b /. ((a +. b) *. (a +. b) *. (a +. b +. 1.0))) in
      let quantiles = reference_quantiles rng ~a ~b in
      List.iter
        (fun (r : Infer.sampler_run) ->
          let xs = Chain.marginal r.Infer.chain i in
          let n = float_of_int (Array.length xs) in
          let fail stat z =
            failures :=
              Printf.sprintf "world %d %s AS%d %s z=%.2f" seed r.Infer.name
                (Asn.to_int asn) stat z
              :: !failures
          in
          let ess = Diagnostics.effective_sample_size xs in
          let z = (Summary.mean xs -. mean) /. (sd /. Float.sqrt ess) in
          incr checked;
          if Float.abs z > k then fail "mean" z;
          List.iter
            (fun (q, xq) ->
              let below =
                Array.fold_left
                  (fun acc x -> if x <= xq then acc +. 1.0 else acc)
                  0.0 xs
              in
              let f = below /. n in
              let mcse =
                Float.sqrt
                  (q *. (1.0 -. q)
                  *. ((1.0 /. ess) +. (1.0 /. float_of_int reference_draws)))
              in
              let z = (f -. q) /. mcse in
                  incr checked;
              if Float.abs z > k then fail (Printf.sprintf "q%.2f" q) z)
            quantiles)
        result.Infer.runs
    end
  done;
  Alcotest.(check bool) "some ASs off every RFD path" true (!exact > 0);
  Alcotest.(check int) "both samplers ran" 2 (List.length result.Infer.runs);
  Alcotest.(check (list string))
    (Printf.sprintf "%d comparisons within %.1f MCSE" !checked k)
    [] (List.rev !failures)

(* MCSE of a marginal mean from the chain's own ESS. *)
let mean_and_mcse xs =
  let ess = Diagnostics.effective_sample_size xs in
  (Summary.mean xs, Summary.std xs /. Float.sqrt ess, ess)

(* On world 42, HMC on the coupled set (what [Infer.run] samples) must
   agree with HMC on the whole dataset (what it sampled before the split)
   on every coupled AS: the mean, and the reduced run's empirical CDF at
   the full run's 5/50/95 % quantiles, within [k] MCSE of the difference.
   MH is left out: single-site MH does not mix in the lower tail on either
   target (on AS 700 its full-dataset 95 % quantile came out at 0.0056
   against HMC's 0.0125; on the coupled set its 5 % quantiles of AS 600
   and AS 1004 sit at 0), so its chains cannot tell the targets apart. *)
let coupled_matches_full () =
  let world, o = Lazy.force (List.assoc 42 campaigns) in
  let result = Option.get o.Sc.Campaign.result in
  let data = Infer.dataset result in
  let config =
    { params.Sc.Campaign.infer_config with
      Infer.node_priors = Sc.World.node_priors world }
  in
  let s = Infer.split config data in
  Alcotest.(check bool) "some ASs coupled" true
    (Array.length s.Infer.coupled > 0);
  let full_chain =
    (Because_mcmc.Hmc.run ~rng:(Rng.create 4242)
       ~leapfrog_steps:config.Infer.leapfrog_steps
       ~n_samples:config.Infer.n_samples ~burn_in:config.Infer.burn_in
       (Because.Model.target
          (Because.Model.create ~prior:config.Infer.prior
             ~node_priors:config.Infer.node_priors data)))
      .Because_mcmc.Hmc.chain
  in
  let hmc =
    List.find (fun (r : Infer.sampler_run) -> r.Infer.name = "HMC")
      result.Infer.runs
  in
  let failures = ref [] in
  Array.iter
    (fun i ->
      let xs = Chain.marginal hmc.Infer.chain i in
      let ys = Chain.marginal full_chain i in
      let mx, sx, ex = mean_and_mcse xs and my, sy, ey = mean_and_mcse ys in
      let fail stat z =
        failures :=
          Printf.sprintf "AS%d %s z=%.2f"
            (Asn.to_int (Tomography.node data i))
            stat z
          :: !failures
      in
      let z = (mx -. my) /. Float.sqrt ((sx *. sx) +. (sy *. sy)) in
      if Float.abs z > k then fail "mean" z;
      List.iter
        (fun q ->
          let yq = Summary.quantile ys q in
          let f =
            Array.fold_left
              (fun acc x -> if x <= yq then acc +. 1.0 else acc)
              0.0 xs
            /. float_of_int (Array.length xs)
          in
          let z =
            (f -. q)
            /. Float.sqrt (q *. (1.0 -. q) *. ((1.0 /. ex) +. (1.0 /. ey)))
          in
          if Float.abs z > k then fail (Printf.sprintf "q%.2f" q) z)
        [ 0.05; 0.5; 0.95 ])
    s.Infer.coupled;
  Alcotest.(check (list string))
    (Printf.sprintf "coupled marginals within %.1f MCSE" k)
    [] (List.rev !failures)

let obs l = List.map (fun (p, rfd) -> (List.map Asn.of_int p, rfd)) l

(* ASs 1, 2, 3 and 6 lie on RFD-labeled paths; 4 and 5 only on clean ones. *)
let hand_built =
  obs
    [ ([ 1; 2; 3 ], true); ([ 1; 4 ], false); ([ 1; 2; 3 ], false);
      ([ 4; 5 ], false); ([ 1; 2; 3 ], true); ([ 2; 6 ], true);
      ([ 1; 4 ], false); ([ 1; 4 ], false) ]

let test_split () =
  let data = Tomography.of_observations hand_built in
  let config =
    { Infer.default_config with
      Infer.node_priors =
        [ (Asn.of_int 4, Prior.Near_zero); (Asn.of_int 1, Prior.Uniform) ] }
  in
  let s = Infer.split config data in
  let asns a = List.map (fun i -> Asn.to_int (Tomography.node data i)) (Array.to_list a) in
  Alcotest.(check (list int)) "coupled set" [ 1; 2; 3; 6 ] (asns s.Infer.coupled);
  Alcotest.(check (list int)) "exact set" [ 4; 5 ] (asns s.Infer.exact);
  Alcotest.(check (list (pair int int))) "clean counts"
    [ (1, 4); (2, 1); (3, 1); (4, 4); (5, 1); (6, 0) ]
    (List.sort compare
       (List.mapi (fun i c -> (Asn.to_int (Tomography.node data i), c))
          (Array.to_list s.Infer.clean)));
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "exact posteriors"
    [ (1.0, 24.0); (0.5, 1.5) ]
    (Array.to_list s.Infer.exact_beta);
  let model = Option.get s.Infer.sampled in
  let reduced = Because.Model.dataset model in
  Alcotest.(check (list int)) "reduced nodes" [ 1; 2; 3; 6 ]
    (List.map Asn.to_int (Array.to_list (Tomography.nodes reduced)));
  Alcotest.(check (list (triple (list int) int int))) "RFD-labeled paths only"
    [ ([ 1; 2; 3 ], 2, 0); ([ 2; 6 ], 1, 0) ]
    (List.init (Tomography.n_paths reduced) (fun j ->
         ( List.map
             (fun i -> Asn.to_int (Tomography.node reduced i))
             (Array.to_list (Tomography.distinct_path reduced j)),
           Tomography.n_rfd reduced j,
           Tomography.n_clean reduced j )));
  (* Coupled priors fold in the clean counts: Uniform is Beta(1, 1), the
     default Beta(½, ½). *)
  let p = [| 0.3; 0.4; 0.5; 0.6 |] in
  let expected =
    List.fold_left ( +. ) 0.0
      (List.map2
         (fun (a, b) x -> Dist.beta_log_pdf ~a ~b x)
         [ (1.0, 5.0); (0.5, 1.5); (0.5, 1.5); (0.5, 0.5) ]
         (Array.to_list p))
  in
  Alcotest.(check (float 1e-9)) "folded priors" expected
    (Because.Model.log_prior model p);
  (* At eps > 0 the clean term couples ASs: the split is the identity. *)
  let id = Infer.split { config with Infer.false_negative_rate = 0.1 } data in
  Alcotest.(check bool) "whole dataset sampled" true
    (Because.Model.dataset (Option.get id.Infer.sampled) == data);
  Alcotest.(check (list int)) "every node coupled"
    (List.init (Tomography.n_nodes data) Fun.id)
    (Array.to_list id.Infer.coupled);
  Alcotest.(check int) "no exact set" 0 (Array.length id.Infer.exact);
  Alcotest.(check string) "full layout" "" id.Infer.layout

(* Each chain draws its own exact block: no two chains share one, and a
   dataset with no RFD label runs no sampler at all. *)
let test_exact_blocks () =
  let data = Tomography.of_observations hand_built in
  let config =
    { Infer.default_config with Infer.n_samples = 50; burn_in = 20; n_chains = 2 }
  in
  let s = Infer.split config data in
  let result = Infer.run ~rng:(Rng.create 8) ~config data in
  let block (r : Infer.sampler_run) =
    List.concat_map
      (fun k -> List.map (Chain.value r.Infer.chain k) (Array.to_list s.Infer.exact))
      (List.init (Chain.length r.Infer.chain) Fun.id)
  in
  let blocks = List.map block result.Infer.runs in
  Alcotest.(check int) "four chains" 4 (List.length blocks);
  Alcotest.(check int) "four distinct exact blocks" 4
    (List.length (List.sort_uniq compare blocks));
  let clean = Tomography.of_observations (obs [ ([ 1; 2 ], false); ([ 2; 3 ], false) ]) in
  let r = Infer.run ~rng:(Rng.create 8) ~config clean in
  Alcotest.(check (list (pair string (float 0.0)))) "exact-only chains"
    [ ("MH", 1.0); ("MH", 1.0); ("HMC", 1.0); ("HMC", 1.0) ]
    (List.map (fun (r : Infer.sampler_run) -> (r.Infer.name, r.Infer.acceptance))
       r.Infer.runs);
  Alcotest.(check bool) "draws in (0, 1)" true
    (List.for_all
       (fun (r : Infer.sampler_run) ->
         Chain.for_all_values (fun x -> x > 0.0 && x < 1.0) r.Infer.chain)
       r.Infer.runs)

let suite =
  ( "exact",
    List.map
      (fun seed ->
        Alcotest.test_case
          (Printf.sprintf "off-RFD marginals, world %d" seed)
          `Quick (exact_set_matches seed))
      [ 42; 43; 44 ]
    @ [ Alcotest.test_case "coupled marginals, world 42" `Quick
          coupled_matches_full;
        Alcotest.test_case "split of a hand-built dataset" `Quick test_split;
        Alcotest.test_case "one exact block per chain" `Quick
          test_exact_blocks ] )

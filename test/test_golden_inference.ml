(* Golden inference output.  A seeded synthetic dataset — 40 ASs, 60 base
   paths re-observed into 300 labeled observations, one Near_zero node
   prior — runs through MH and HMC at ε = 0 (one chain per sampler) and
   ε = 0.1 (two chains per sampler).  The literals below pin, bit for bit,
   every retained draw, the per-run and pooled posterior summaries, the
   two-step categories, the estimate rows the service stores and the
   convergence gate; any change to a float operation anywhere from the
   likelihood to the HDPI shows up here. *)
module Tomography = Because.Tomography
module Infer = Because.Infer
module Posterior = Because.Posterior
module Categorize = Because.Categorize
module Pinpoint = Because.Pinpoint
module Prior = Because.Prior
module Chain = Because_mcmc.Chain
module Store = Because_service.Store
module Rng = Because_stats.Rng
module Asn = Because_bgp.Asn

let dampers = [ 3; 11; 17; 29 ]

(* 60 base paths of 2–5 distinct ASs out of 40; each observation re-draws
   a base path, so distinct paths repeat with mixed labels.  A path
   through a damper is labeled RFD with probability 0.85.  AS 23 damps
   only its short paths (probability 0.9), the inconsistent damper that
   pinpointing promotes; any other path is RFD with probability 0.02. *)
let observations () =
  let rng = Rng.create 2024 in
  let base =
    Array.init 60 (fun _ ->
        let len = 2 + Rng.int rng 4 in
        let rec pick acc =
          if List.length acc = len then acc
          else
            let a = 1 + Rng.int rng 40 in
            if List.mem a acc then pick acc else pick (a :: acc)
        in
        pick [])
  in
  List.init 300 (fun _ ->
      let p = base.(Rng.int rng (Array.length base)) in
      let damped = List.exists (fun a -> List.mem a dampers) p in
      let partial = List.mem 23 p && List.length p <= 3 in
      let label =
        Rng.float rng < if damped then 0.85 else if partial then 0.9 else 0.02
      in
      (List.map Asn.of_int p, label))

let run ~epsilon ~n_chains =
  let data = Tomography.of_observations (observations ()) in
  let config =
    { Infer.default_config with
      Infer.n_samples = 400;
      burn_in = 300;
      leapfrog_steps = 8;
      n_chains;
      false_negative_rate = epsilon;
      node_priors = [ (Asn.of_int 1, Prior.Near_zero) ] }
  in
  Infer.run ~rng:(Rng.create 77) ~config data

let digest_of f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let bits b x = Printf.bprintf b "%Lx " (Int64.bits_of_float x)

let chain_digest chain =
  digest_of (fun b ->
      for k = 0 to Chain.length chain - 1 do
        for i = 0 to Chain.dim chain - 1 do
          bits b (Chain.value chain k i)
        done
      done)

let run_digests (result : Infer.result) name =
  List.filter_map
    (fun (r : Infer.sampler_run) ->
      if r.Infer.name = name then Some (chain_digest r.Infer.chain) else None)
    result.Infer.runs

let marginals_digest ms =
  digest_of (fun b ->
      Array.iter
        (fun (m : Posterior.marginal) ->
          Printf.bprintf b "%d %d " (Asn.to_int m.Posterior.asn)
            m.Posterior.index;
          bits b m.Posterior.mean;
          bits b m.Posterior.hdpi.lo;
          bits b m.Posterior.hdpi.hi;
          bits b m.Posterior.certainty)
        ms)

let categories_digest (p : Pinpoint.pipeline) =
  digest_of (fun b ->
      let cats l =
        List.iter
          (fun (a, c) ->
            Printf.bprintf b "%d:%d " (Asn.to_int a) (Categorize.to_int c))
          l;
        Buffer.add_char b '\n'
      in
      cats p.Pinpoint.step1;
      cats p.Pinpoint.categories;
      List.iter
        (fun a -> Printf.bprintf b "%d " (Asn.to_int a))
        p.Pinpoint.insufficient;
      List.iter
        (fun (pr : Pinpoint.promotion) ->
          Printf.bprintf b "\n%d %d %d " (Asn.to_int pr.Pinpoint.asn)
            pr.Pinpoint.node pr.Pinpoint.path_index;
          bits b pr.Pinpoint.posterior_prob)
        p.Pinpoint.promotions)

let estimates_digest rows =
  digest_of (fun b ->
      Array.iter
        (fun (e : Store.estimate) ->
          Printf.bprintf b "%d %d %b " (Asn.to_int e.Store.asn)
            e.Store.category e.Store.damping;
          bits b e.Store.mean;
          bits b e.Store.lo;
          bits b e.Store.hi)
        rows)

type golden = {
  mh : string list;
  hmc : string list;
  per_run : string list;
  pooled : string;
  categories : string;
  estimates : string;
  gate : int option list;  (** At R̂ thresholds 1.1, 1.2 and 1.5. *)
}

let check ~epsilon ~n_chains g () =
  let result = run ~epsilon ~n_chains in
  Alcotest.(check int) "40 ASs" 40
    (Tomography.n_nodes (Infer.dataset result));
  Alcotest.(check (list string)) "MH chains" g.mh (run_digests result "MH");
  Alcotest.(check (list string)) "HMC chains" g.hmc (run_digests result "HMC");
  Alcotest.(check (list string)) "per-run marginals" g.per_run
    (List.map (fun (_, ms) -> marginals_digest ms)
       (Posterior.per_sampler result));
  Alcotest.(check string) "pooled marginals" g.pooled
    (marginals_digest (Posterior.combined result));
  let p = Pinpoint.pipeline ~min_path_support:12 result in
  Alcotest.(check string) "pipeline categories" g.categories
    (categories_digest p);
  Alcotest.(check string) "estimate rows" g.estimates
    (estimates_digest
       (Store.estimates_of_result result ~categories:p.Pinpoint.categories));
  Alcotest.(check (list (option int))) "gate draws" g.gate
    (List.map
       (fun threshold -> Infer.gate_draws ~threshold result)
       [ 1.1; 1.2; 1.5 ])

(* Recorded when MH and HMC began sampling only the ASs on RFD-labeled
   paths and drawing the others from their exact Beta posteriors. *)
let eps0 =
  { mh = [ "3e8f24b60777219dde97eff3fda68619" ];
    hmc = [ "7930f9a604d232e0dc781433c3e1922f" ];
    per_run =
      [ "445b5566c0cb5a4555faf2461625ab65"; "42d2b9c56d6250ceac7215f64f390189" ];
    pooled = "d53fd82cded504a00a6e55f06b39cc48";
    categories = "81a1fd3d00c14ac18ea637cd5346a2e2";
    estimates = "b04895a8392488bf3bfb5e9d46664619";
    gate = [ None; Some 375; Some 100 ] }

(* Recorded at the commit before the inference kernels' rewrite.  At
   ε > 0 the split is the identity, so these never moved. *)
let eps01 =
  { mh =
      [ "a9cb49d4a6105b43055fc44044c132f4"; "a211336c766393e8791eb17b6bfe3bcb" ];
    hmc =
      [ "b63a02324fb0bf6c73cfaab21e4ac66d"; "101fb5f3944fc4ce31d4d842c66e1fa3" ];
    per_run =
      [ "86c681c189a2577ddc2f1d427994a83a"; "8e9accda42f91a8dca3879e76d4985ca";
        "9c649b14670cb5327105d7b7a2271af2"; "71f84a0154d51bb85190f89be1022c9b" ];
    pooled = "c00027257ffdc86405951151d576f172";
    categories = "502a0eb6347c9f0aedd24c6f6df089b7";
    estimates = "9bdf66a2fffcddf4cb64f1c138b1a8ae";
    gate = [ None; Some 300; Some 150 ] }

let suite =
  ( "golden-mcmc",
    [
      Alcotest.test_case "eps=0, one chain per sampler" `Quick
        (check ~epsilon:0.0 ~n_chains:1 eps0);
      Alcotest.test_case "eps=0.1, two chains per sampler" `Quick
        (check ~epsilon:0.1 ~n_chains:2 eps01);
    ] )

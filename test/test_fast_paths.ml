(* The inference fast paths against the references they replace, bit for
   bit: the float sort against [Array.sort Float.compare], the one-pass
   posterior summary (per-run and merged pooled HDPI and mean) against
   [Hdpi.compute] / [Summary.mean] on extracted marginals, the copy-free
   convergence gate against a scan over [Chain.prefix] copies, and the
   prior with its normaliser computed once against [Dist.beta_log_pdf]. *)
module Fsort = Because_stats.Fsort
module Hdpi = Because_stats.Hdpi
module Summary = Because_stats.Summary
module Dist = Because_stats.Dist
module Chain = Because_mcmc.Chain
module Diagnostics = Because_mcmc.Diagnostics
module Tomography = Because.Tomography
module Infer = Because.Infer
module Posterior = Because.Posterior
module Prior = Because.Prior
module Asn = Because_bgp.Asn

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let edges = [ 0.0; 1e-9; 1.0 -. 1e-9; 1.0; 0.5 ]

(* Draws in the unit box with many exact duplicates and the sampler clamp
   edges. *)
let unit_value =
  QCheck.Gen.(
    frequency
      [ (3, float_range 0.0 1.0);
        (2, oneofl edges);
        (2, map (fun k -> float_of_int k /. 8.0) (int_range 0 8)) ])

let qcheck_sort =
  let value =
    QCheck.Gen.(
      frequency
        [ (4, unit_value);
          (1, oneofl [ -0.0; nan; Float.neg nan; infinity; neg_infinity ]);
          (1, float) ])
  in
  QCheck.Test.make ~name:"Fsort.sort = Array.sort Float.compare, bit for bit"
    ~count:500
    (QCheck.make QCheck.Gen.(array_size (int_range 0 300) value))
    (fun xs ->
      let expected = Array.copy xs and got = Array.copy xs in
      Array.sort Float.compare expected;
      Fsort.sort got;
      Array.for_all2 same_bits expected got)

(* A hand-built result over [dim] nodes whose runs hold the given draws. *)
let hand_result dim runs =
  let data =
    Tomography.of_observations
      [ (List.init dim (fun i -> Asn.of_int (i + 1)), true) ]
  in
  { Infer.model = Because.Model.create data;
    runs =
      List.mapi
        (fun k (name, rows) ->
          { Infer.name; chain_index = k;
            chain = Chain.of_samples rows; acceptance = 0.5 })
        runs;
    warnings = [];
    aborted = [] }

let qcheck_summary =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun dim ->
      int_range 1 4 >>= fun k ->
      list_repeat k
        (int_range 1 120 >>= fun len ->
         array_repeat len (array_repeat dim unit_value))
      >>= fun runs ->
      oneofl [ 0.5; 0.8; 0.95; 1.0 ] >>= fun mass -> return (dim, runs, mass))
  in
  QCheck.Test.make
    ~name:"one-pass summary = Hdpi.compute and Summary.mean per marginal"
    ~count:200 (QCheck.make gen)
    (fun (dim, runs, mass) ->
      let result =
        hand_result dim (List.mapi (fun k r -> (string_of_int k, r)) runs)
      in
      let s = Posterior.summarize ~mass result in
      let agrees (m : Posterior.marginal) xs =
        let h = Hdpi.compute ~mass xs in
        same_bits m.Posterior.mean (Summary.mean xs)
        && same_bits m.Posterior.hdpi.Hdpi.lo h.Hdpi.lo
        && same_bits m.Posterior.hdpi.Hdpi.hi h.Hdpi.hi
        && same_bits m.Posterior.certainty (1.0 -. Hdpi.width h)
      in
      let pooled = Infer.combined_chain result in
      List.for_all2
        (fun (r : Infer.sampler_run) (_, ms) ->
          Array.for_all
            (fun i -> agrees ms.(i) (Chain.marginal r.Infer.chain i))
            (Array.init dim Fun.id))
        result.Infer.runs s.Posterior.runs
      && Array.for_all
           (fun i -> agrees s.Posterior.pooled.(i) (Chain.marginal pooled i))
           (Array.init dim Fun.id))

(* The convergence gate as it was first written: per grid length, copy
   each chain's prefix and take the worst R-hat over every sampler and
   coordinate. *)
let reference_gate ~threshold (result : Infer.result) =
  let runs = result.Infer.runs in
  let min_len =
    List.fold_left
      (fun acc (r : Infer.sampler_run) -> min acc (Chain.length r.Infer.chain))
      max_int runs
  in
  if runs = [] || min_len < 8 then None
  else begin
    let grid =
      List.sort_uniq compare
        (List.init 16 (fun k -> max 8 (min_len * (k + 1) / 16)))
    in
    let names =
      List.sort_uniq compare
        (List.map (fun (r : Infer.sampler_run) -> r.Infer.name) runs)
    in
    let worst n =
      List.fold_left
        (fun worst name ->
          let chains =
            Array.of_list
              (List.filter_map
                 (fun (r : Infer.sampler_run) ->
                   if r.Infer.name = name then
                     Some (Chain.prefix r.Infer.chain n)
                   else None)
                 runs)
          in
          let w = ref worst in
          for i = 0 to Chain.dim chains.(0) - 1 do
            let v =
              match chains with
              | [| only |] -> Diagnostics.split_r_hat_coord only i
              | _ -> Diagnostics.r_hat_coord chains i
            in
            if v > !w then w := v
          done;
          !w)
        neg_infinity names
    in
    List.find_opt (fun n -> worst n <= threshold) grid
  end

let qcheck_gate =
  (* Random walks drift, so R-hat crosses realistic thresholds at
     different prefix lengths. *)
  let walk dim len =
    QCheck.Gen.(
      array_repeat (len * dim) (float_range (-0.5) 0.5) >>= fun steps ->
      let rows = Array.make_matrix len dim 0.0 in
      for k = 0 to len - 1 do
        for i = 0 to dim - 1 do
          let prev = if k = 0 then 0.0 else rows.(k - 1).(i) in
          rows.(k).(i) <- prev +. steps.((k * dim) + i)
        done
      done;
      return rows)
  in
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun dim ->
      list_size (int_range 1 4)
        (pair (oneofl [ "MH"; "HMC" ]) (int_range 4 90 >>= walk dim))
      >>= fun runs ->
      float_range 1.0 1.8 >>= fun threshold -> return (dim, runs, threshold))
  in
  QCheck.Test.make ~name:"copy-free gate scan = Chain.prefix reference"
    ~count:300 (QCheck.make gen)
    (fun (dim, runs, threshold) ->
      let result = hand_result dim runs in
      Infer.gate_draws ~threshold result = reference_gate ~threshold result)

let qcheck_prior =
  let gen =
    QCheck.Gen.(
      triple (float_range 0.05 30.0) (float_range 0.05 30.0)
        (frequency [ (4, float_range (-0.1) 1.1); (1, oneofl edges) ]))
  in
  QCheck.Test.make ~name:"prior log density = Dist.beta_log_pdf, bit for bit"
    ~count:500 (QCheck.make gen)
    (fun (a, b, x) ->
      let reference = Dist.beta_log_pdf ~a ~b x in
      let prior = Prior.Beta { a; b } in
      same_bits (Prior.log_pdf prior x) reference
      && same_bits (Prior.log_density (Prior.density prior) x) reference
      && same_bits
           (Prior.log_density (Prior.density Prior.Near_zero) x)
           (Dist.beta_log_pdf ~a:1.0 ~b:20.0 x)
      && same_bits
           (Prior.grad_log_density (Prior.density prior) x)
           (Prior.grad_log_pdf prior x))

let suite =
  ( "fast-paths",
    List.map QCheck_alcotest.to_alcotest
      [ qcheck_sort; qcheck_summary; qcheck_gate; qcheck_prior ] )

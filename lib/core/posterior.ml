open Because_bgp
module Chain = Because_mcmc.Chain
module Hdpi = Because_stats.Hdpi
module Fsort = Because_stats.Fsort

type marginal = {
  asn : Asn.t;
  index : int;
  mean : float;
  hdpi : Hdpi.t;
  certainty : float;
}

type t = { runs : (string * marginal array) list; pooled : marginal array }

type facc = { mutable v : float }

let make asn index mean hdpi =
  { asn; index; mean; hdpi; certainty = 1.0 -. Hdpi.width hdpi }

(* One pass per node: each run's column is extracted once, summed in chain
   order (its own mean, and the pooled mean's running sum in the pooled
   chain's order — runs concatenated), then sorted in place for its HDPI.
   The pooled HDPI comes from merging the sorted columns, which is the
   sorted concatenation: healthy draws hold no NaN or signed zero, so
   equal draws are bit-equal.  Every float therefore equals the one
   [Summary.mean] and [Hdpi.compute] give on the extracted marginals. *)
let summarize ?(mass = 0.95) (result : Infer.result) =
  let data = Infer.dataset result in
  let chains =
    Array.of_list
      (List.map
         (fun (r : Infer.sampler_run) -> r.Infer.chain)
         result.Infer.runs)
  in
  let cols = Array.map (fun c -> Array.make (Chain.length c) 0.0) chains in
  let total = Array.fold_left (fun n col -> n + Array.length col) 0 cols in
  let merged = Array.make (if Array.length cols > 1 then total else 0) 0.0 in
  let nodes = Tomography.n_nodes data in
  let unset =
    { asn = Asn.of_int 0; index = -1; mean = nan;
      hdpi = { Hdpi.lo = nan; hi = nan }; certainty = nan }
  in
  let run_marginals = Array.map (fun _ -> Array.make nodes unset) chains in
  let pooled = Array.make (if total = 0 then 0 else nodes) unset in
  for i = 0 to nodes - 1 do
    let asn = Tomography.node data i in
    let pooled_sum = { v = 0.0 } in
    Array.iteri
      (fun r chain ->
        let col = cols.(r) in
        let n = Array.length col in
        Chain.marginal_into chain i ~len:n col;
        let sum = { v = 0.0 } in
        for k = 0 to n - 1 do
          let x = Array.unsafe_get col k in
          sum.v <- sum.v +. x;
          pooled_sum.v <- pooled_sum.v +. x
        done;
        Fsort.sort col;
        run_marginals.(r).(i) <-
          make asn i (sum.v /. float_of_int n) (Hdpi.of_sorted ~mass col))
      chains;
    if total > 0 then begin
      let sorted =
        if Array.length cols = 1 then cols.(0)
        else begin
          Fsort.merge cols merged;
          merged
        end
      in
      pooled.(i) <-
        make asn i (pooled_sum.v /. float_of_int total)
          (Hdpi.of_sorted ~mass sorted)
    end
  done;
  { runs =
      List.mapi
        (fun r (run : Infer.sampler_run) -> (run.Infer.name, run_marginals.(r)))
        result.Infer.runs;
    pooled }

let per_sampler ?mass result = (summarize ?mass result).runs
let combined ?mass result = (summarize ?mass result).pooled

open Because
module Chain = Because_mcmc.Chain

type path_prediction = {
  path_index : int;
  probability : float;
  n_rfd : int;
  n_clean : int;
}

type calibration_bin = {
  lo : float;
  hi : float;
  count : int;
  mean_predicted : float;
  observed_rate : float;
}

type t = {
  predictions : path_prediction list;
  brier : float;
  log_score : float;
  calibration : calibration_bin list;
}

(* Flat float record: accumulating through it does not box, and
   [Chain.value] avoids copying a row per draw. *)
type facc = { mutable v : float }

let path_probability data chain j =
  let nodes = Tomography.distinct_path data j in
  let n = Chain.length chain in
  let acc = { v = 0.0 } in
  for k = 0 to n - 1 do
    let q = { v = 1.0 } in
    for idx = 0 to Array.length nodes - 1 do
      q.v <- q.v *. (1.0 -. Chain.value chain k nodes.(idx))
    done;
    acc.v <- acc.v +. (1.0 -. q.v)
  done;
  acc.v /. float_of_int n

(* Count-weighted mean of [f] over [predictions]; 0 when they hold no
   observation. *)
let weighted_mean predictions f =
  let total, sum =
    List.fold_left
      (fun (total, sum) p ->
        (total + p.n_rfd + p.n_clean, sum +. f p))
      (0, 0.0) predictions
  in
  if total = 0 then (0, 0.0) else (total, sum /. float_of_int total)

let evaluate ?(bins = 10) result =
  let data = Infer.dataset result in
  let chain = Infer.combined_chain result in
  (* One prediction per distinct path: every observation of a path gets the
     same predictive probability, so each score weighs it by its counts. *)
  let predictions =
    List.init (Tomography.n_paths data) (fun j ->
        {
          path_index = j;
          probability = path_probability data chain j;
          n_rfd = Tomography.n_rfd data j;
          n_clean = Tomography.n_clean data j;
        })
  in
  let times n x = float_of_int n *. x in
  let _, brier =
    weighted_mean predictions (fun p ->
        let d = p.probability -. 1.0 in
        times p.n_rfd (d *. d)
        +. times p.n_clean (p.probability *. p.probability))
  in
  let _, log_score =
    weighted_mean predictions (fun p ->
        times p.n_rfd (Float.log (Float.max 1e-9 p.probability))
        +. times p.n_clean (Float.log (Float.max 1e-9 (1.0 -. p.probability))))
  in
  let calibration =
    List.init bins (fun b ->
        let lo = float_of_int b /. float_of_int bins in
        let hi = float_of_int (b + 1) /. float_of_int bins in
        let members =
          List.filter
            (fun p ->
              p.probability >= lo
              && (p.probability < hi || (b = bins - 1 && p.probability <= hi)))
            predictions
        in
        let count, mean_predicted =
          weighted_mean members (fun p ->
              times (p.n_rfd + p.n_clean) p.probability)
        in
        let _, observed_rate =
          weighted_mean members (fun p -> float_of_int p.n_rfd)
        in
        { lo; hi; count; mean_predicted; observed_rate })
  in
  { predictions; brier; log_score; calibration }

let pp_summary fmt t =
  Format.fprintf fmt "Brier %.4f, mean log score %.4f@." t.brier t.log_score;
  Format.fprintf fmt "%-14s %8s %12s %10s@." "bin" "paths" "predicted"
    "observed";
  List.iter
    (fun b ->
      if b.count > 0 then
        Format.fprintf fmt "[%.1f, %.1f)     %8d %11.2f %10.2f@." b.lo b.hi
          b.count b.mean_predicted b.observed_rate)
    t.calibration

module Special = Because_stats.Special
module Target = Because_mcmc.Target

type t = {
  data : Tomography.t;
  priors : Prior.t array;  (* one per node index *)
  epsilon : float;         (* false-negative rate of the labeling *)
}

let eps = 1e-9

(* Branch form of [Float.max eps (Float.min (1.0 -. eps) p)] (same result,
   NaN included): small enough for the non-flambda inliner, so the hot
   loops pay two compares instead of two boxed calls per node. *)
let clamp p = if p < eps then eps else if p > 1.0 -. eps then 1.0 -. eps else p

let create ?(prior = Prior.default) ?(node_priors = [])
    ?(false_negative_rate = 0.0) data =
  if false_negative_rate < 0.0 || false_negative_rate >= 1.0 then
    invalid_arg "Model.create: false_negative_rate outside [0, 1)";
  let priors = Array.make (Tomography.n_nodes data) prior in
  List.iter
    (fun (asn, node_prior) ->
      match Tomography.index_of data asn with
      | Some i -> priors.(i) <- node_prior
      | None -> ())
    node_priors;
  { data; priors; epsilon = false_negative_rate }

let dataset t = t.data

(* All-float mutable record: unlike a [float ref], accumulating through it
   does not box a float on every store.  The hot loops below run once per
   path per density/gradient evaluation, so this is where the sampler's
   allocation rate lives. *)
type facc = { mutable v : float }

(* Count-weighted log probability of distinct path [j] from S = Σ ln qᵢ:

     n_rfd · (ln(1−ε) + ln(1 − e^S))  +  n_clean · ln(ε + (1−ε)·e^S)

   A zero count skips its term, so a path seen with one label once gives
   exactly the single-observation term (× 1.0 is exact).  [Special.log1mexp]
   is spelled out: small enough for the non-flambda inliner, so the hot
   loops pay no boxed call per path. *)
let path_term t j s =
  let r = Tomography.n_rfd t.data j and c = Tomography.n_clean t.data j in
  let rfd =
    if r = 0 then 0.0
    else
      float_of_int r
      *. ((if t.epsilon = 0.0 then 0.0 else Float.log1p (-.t.epsilon))
         +.
         if s >= 0.0 then invalid_arg "Special.log1mexp: requires x < 0"
         else if s > -.Float.log 2.0 then Float.log (-.Float.expm1 s)
         else Float.log1p (-.Float.exp s))
  in
  if c = 0 then rfd
  else begin
    let clean =
      float_of_int c
      *.
      if t.epsilon = 0.0 then s
      else Float.log (t.epsilon +. ((1.0 -. t.epsilon) *. Float.exp s))
    in
    if r = 0 then clean else rfd +. clean
  end

(* ln qᵢ = log1p(−clamp pᵢ) once per node: the path loops below then sum
   a lookup instead of paying a log1p per (path, node) pair.  The per-call
   scratch is the only allocation of the likelihood. *)
let log_q t p =
  let lq = Array.make (Tomography.n_nodes t.data) 0.0 in
  for i = 0 to Array.length lq - 1 do
    Array.unsafe_set lq i (Float.log1p (-.clamp (Array.get p i)))
  done;
  lq

(* Σ over the nodes of distinct path [j] of [lq], accumulated in [s]: a
   float-returning loop is not inlined without flambda, and its boxed
   result would be the likelihood's one allocation per path. *)
let path_sum s off nodes lq j =
  s.v <- 0.0;
  for k = Array.unsafe_get off j to Array.unsafe_get off (j + 1) - 1 do
    s.v <- s.v +. Array.unsafe_get lq (Array.unsafe_get nodes k)
  done

let log_likelihood t p =
  let lq = log_q t p in
  let off = Tomography.path_offsets t.data in
  let nodes = Tomography.path_nodes t.data in
  let acc = { v = 0.0 } and s = { v = 0.0 } in
  for j = 0 to Tomography.n_paths t.data - 1 do
    path_sum s off nodes lq j;
    acc.v <- acc.v +. path_term t j s.v
  done;
  acc.v

let log_prior t p =
  let acc = { v = 0.0 } in
  for i = 0 to Array.length t.priors - 1 do
    acc.v <- acc.v +. Prior.log_pdf t.priors.(i) (clamp p.(i))
  done;
  acc.v

let log_posterior t p = log_likelihood t p +. log_prior t p

let grad_log_posterior t p =
  let n = Tomography.n_nodes t.data in
  let g = Array.make n 0.0 in
  for i = 0 to Array.length t.priors - 1 do
    g.(i) <- Prior.grad_log_pdf t.priors.(i) (clamp p.(i))
  done;
  let lq = log_q t p in
  let off = Tomography.path_offsets t.data in
  let nodes = Tomography.path_nodes t.data in
  let sacc = { v = 0.0 } in
  for j = 0 to Tomography.n_paths t.data - 1 do
    path_sum sacc off nodes lq j;
    let s = sacc.v in
    let r = Tomography.n_rfd t.data j and c = Tomography.n_clean t.data j in
    (* ∂/∂pᵢ of the path term is coef / qᵢ, with
         ∂ ln(1 − e^S)        → 1 / expm1(−S)          per positive label
         ∂ ln(ε + (1−ε)e^S)   → −(1−ε)e^S / (ε + (1−ε)e^S)   per clean one
       (the ln(1−ε) offset is constant in p).  A single label gives the
       per-observation coefficient exactly. *)
    let pos = if r = 0 then 0.0 else float_of_int r *. (1.0 /. Float.expm1 (-.s)) in
    let coef =
      if c = 0 then pos
      else begin
        let weight =
          if t.epsilon = 0.0 then 1.0
          else begin
            let q_path = Float.exp s in
            (1.0 -. t.epsilon) *. q_path
            /. (t.epsilon +. ((1.0 -. t.epsilon) *. q_path))
          end
        in
        let neg = float_of_int c *. weight in
        if r = 0 then -.neg else pos -. neg
      end
    in
    for k = Array.unsafe_get off j to Array.unsafe_get off (j + 1) - 1 do
      let i = Array.unsafe_get nodes k in
      g.(i) <- g.(i) +. (coef /. (1.0 -. clamp p.(i)))
    done
  done;
  g

(* Stateful evaluator for single-site samplers.  Keeps, per distinct path
   j, the running sufficient statistic S_j = Σ ln q_i and the resulting
   count-weighted log probability term, plus per-node ln q_i.  A proposal
   p_i → v then shifts every path through i by the same
   dlq = ln(1−v) − ln(1−p_i), so a delta costs O(paths_through i) with O(1)
   work per path instead of re-summing both the old and the new point over
   each path.  Rejections touch nothing; accepts pay one [path_term] per
   affected path to refresh the term cache. *)
let make_cache t p0 =
  let n_paths = Tomography.n_paths t.data in
  let off = Tomography.path_offsets t.data in
  let nodes = Tomography.path_nodes t.data in
  let through_off = Tomography.through_offsets t.data in
  let through = Tomography.through_paths t.data in
  let point = Array.map clamp p0 in
  let lq = Array.map (fun v -> Float.log1p (-.v)) point in
  let s =
    let acc = { v = 0.0 } in
    Array.init n_paths (fun j ->
        path_sum acc off nodes lq j;
        acc.v)
  in
  let term = Array.init n_paths (fun j -> path_term t j s.(j)) in
  let cached_delta i v =
    let v = clamp v in
    let dlq = Float.log1p (-.v) -. lq.(i) in
    let acc =
      { v = Prior.log_pdf t.priors.(i) v
            -. Prior.log_pdf t.priors.(i) point.(i) }
    in
    for k = through_off.(i) to through_off.(i + 1) - 1 do
      let j = Array.unsafe_get through k in
      acc.v <- acc.v +. path_term t j (s.(j) +. dlq) -. term.(j)
    done;
    acc.v
  in
  let cached_commit i v =
    let v = clamp v in
    let dlq = Float.log1p (-.v) -. lq.(i) in
    point.(i) <- v;
    lq.(i) <- Float.log1p (-.v);
    for k = through_off.(i) to through_off.(i + 1) - 1 do
      let j = Array.unsafe_get through k in
      s.(j) <- s.(j) +. dlq;
      term.(j) <- path_term t j s.(j)
    done
  in
  (* Checkpoint support.  [s] is accumulated incrementally, so a rebuild
     from the point alone lands an ulp off the live trajectory; the state
     vector therefore carries point ++ s verbatim.  [lq] and [term] are
     pure functions of point and s and are recomputed bit-identically. *)
  let dim = Array.length point in
  let cached_state () = Array.append point s in
  let cached_restore saved =
    if Array.length saved <> dim + n_paths then
      invalid_arg "Model.make_cache: saved cache state has wrong size";
    Array.blit saved 0 point 0 dim;
    Array.blit saved dim s 0 n_paths;
    for i = 0 to dim - 1 do
      lq.(i) <- Float.log1p (-.point.(i))
    done;
    for j = 0 to n_paths - 1 do
      term.(j) <- path_term t j s.(j)
    done
  in
  { Target.cached_delta; cached_commit; cached_state; cached_restore }

let delta_log_posterior t p i v =
  let v = clamp v in
  let prior_delta =
    Prior.log_pdf t.priors.(i) v -. Prior.log_pdf t.priors.(i) (clamp p.(i))
  in
  let acc = { v = prior_delta } in
  let off = Tomography.path_offsets t.data in
  let nodes = Tomography.path_nodes t.data in
  let through_off = Tomography.through_offsets t.data in
  let through = Tomography.through_paths t.data in
  let s_old = { v = 0.0 } and s_new = { v = 0.0 } in
  for k = through_off.(i) to through_off.(i + 1) - 1 do
    let j = through.(k) in
    s_old.v <- 0.0;
    s_new.v <- 0.0;
    for m = off.(j) to off.(j + 1) - 1 do
      let node = nodes.(m) in
      let x = clamp p.(node) in
      s_old.v <- s_old.v +. Float.log1p (-.x);
      s_new.v <- s_new.v +. Float.log1p (-.(if node = i then v else x))
    done;
    acc.v <- acc.v +. path_term t j s_new.v -. path_term t j s_old.v
  done;
  acc.v

let target ?(cached = true) t =
  let cache = if cached then Some (make_cache t) else None in
  Target.create
    ~grad:(grad_log_posterior t)
    ~delta:(delta_log_posterior t)
    ?cache
    ~dim:(Tomography.n_nodes t.data)
    ~support:Target.Unit_interval (log_posterior t)

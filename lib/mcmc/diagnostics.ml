module Summary = Because_stats.Summary

let autocorrelation xs lag =
  let n = Array.length xs in
  if lag < 0 then invalid_arg "Diagnostics.autocorrelation: negative lag";
  if n < lag + 2 then 0.0
  else begin
    let m = Summary.mean xs in
    let denom = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        denom := !denom +. (d *. d))
      xs;
    if !denom = 0.0 then 0.0
    else begin
      let num = ref 0.0 in
      for i = 0 to n - lag - 1 do
        num := !num +. ((xs.(i) -. m) *. (xs.(i + lag) -. m))
      done;
      !num /. !denom
    end
  end

let effective_sample_size xs =
  let n = Array.length xs in
  if n < 4 then float_of_int n
  else begin
    (* Geyer initial positive sequence over paired lags. *)
    let rec sum_pairs k acc =
      if 2 * k + 1 >= n / 2 then acc
      else begin
        let pair =
          autocorrelation xs ((2 * k) + 1) +. autocorrelation xs ((2 * k) + 2)
        in
        if pair <= 0.0 then acc else sum_pairs (k + 1) (acc +. pair)
      end
    in
    let rho1 = autocorrelation xs 1 in
    let tail = sum_pairs 0 0.0 in
    let tau = 1.0 +. (2.0 *. Float.max 0.0 rho1) +. (2.0 *. tail) in
    let tau = Float.max 1.0 tau in
    float_of_int n /. tau
  end

(* Potential scale reduction from per-chain means and variances over [n]
   draws each — the shared tail of every r-hat variant below. *)
let psr ~n means vars =
  let m = Array.length means in
  let w = Summary.mean vars in
  let grand = Summary.mean means in
  let b =
    float_of_int n
    *. (Array.fold_left
          (fun acc mu ->
            let d = mu -. grand in
            acc +. (d *. d))
          0.0 means
       /. float_of_int (m - 1))
  in
  if w <= 0.0 then 1.0
  else begin
    let var_plus =
      ((float_of_int (n - 1) /. float_of_int n) *. w)
      +. (b /. float_of_int n)
    in
    Float.sqrt (var_plus /. w)
  end

(* Mean and variance of [xs.(pos .. pos+len-1)], replicating
   [Summary.mean] / [Summary.variance] (left-to-right sums, n-1 divisor)
   so that the [_prefix] r-hats are bit-identical to the ones over copied
   sub-arrays. *)
type facc = { mutable acc : float }

let slice_mean xs ~pos ~len =
  let a = { acc = 0.0 } in
  for k = pos to pos + len - 1 do
    a.acc <- a.acc +. xs.(k)
  done;
  a.acc /. float_of_int len

let slice_variance xs ~pos ~len =
  if len < 2 then 0.0
  else begin
    let m = slice_mean xs ~pos ~len in
    let a = { acc = 0.0 } in
    for k = pos to pos + len - 1 do
      let d = xs.(k) -. m in
      a.acc <- a.acc +. (d *. d)
    done;
    a.acc /. float_of_int (len - 1)
  end

let r_hat_prefix chains n =
  if Array.length chains < 2 then
    invalid_arg "Diagnostics.r_hat_prefix: need at least two chains";
  Array.iter
    (fun c ->
      if Array.length c < n then
        invalid_arg "Diagnostics.r_hat_prefix: chain shorter than the prefix")
    chains;
  if n < 2 then 1.0
  else
    psr ~n
      (Array.map (fun c -> slice_mean c ~pos:0 ~len:n) chains)
      (Array.map (fun c -> slice_variance c ~pos:0 ~len:n) chains)

let r_hat chains =
  if Array.length chains < 2 then
    invalid_arg "Diagnostics.r_hat: need at least two chains";
  let n = Array.length chains.(0) in
  Array.iter
    (fun c ->
      if Array.length c <> n then
        invalid_arg "Diagnostics.r_hat: unequal chain lengths")
    chains;
  r_hat_prefix chains n

let split_r_hat_prefix xs n =
  if n > Array.length xs then
    invalid_arg "Diagnostics.split_r_hat_prefix: prefix longer than the chain";
  if n < 4 then 1.0
  else begin
    let half = n / 2 in
    psr ~n:half
      [| slice_mean xs ~pos:0 ~len:half;
         slice_mean xs ~pos:(n - half) ~len:half |]
      [| slice_variance xs ~pos:0 ~len:half;
         slice_variance xs ~pos:(n - half) ~len:half |]
  end

let split_r_hat xs = split_r_hat_prefix xs (Array.length xs)

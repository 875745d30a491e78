let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = ref 0.0 in
    Array.iter
      (fun x ->
        let d = x -. m in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let std xs = Float.sqrt (variance xs)
let min xs = Array.fold_left Float.min infinity xs
let max xs = Array.fold_left Float.max neg_infinity xs

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.quantile: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.quantile: q outside [0,1]";
  let sorted = Fsort.sorted_copy xs in
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = h -. Float.floor h in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = quantile xs 0.5

let covariance xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Summary.covariance: length mismatch";
  if n < 2 then 0.0
  else begin
    let mx = mean xs and my = mean ys in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. ((xs.(i) -. mx) *. (ys.(i) -. my))
    done;
    !acc /. float_of_int (n - 1)
  end

let correlation xs ys =
  let sx = std xs and sy = std ys in
  if sx = 0.0 || sy = 0.0 then 0.0 else covariance xs ys /. (sx *. sy)

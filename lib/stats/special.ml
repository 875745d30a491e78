let lanczos_g = 7.0

let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: requires x > 0"
  else if x < 0.5 then
    (* Reflection keeps the Lanczos series in its accurate range. *)
    Float.log (Float.pi /. Float.sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to Array.length lanczos_coefficients - 1 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. Float.log (2.0 *. Float.pi))
    +. (((x +. 0.5) *. Float.log t) -. t)
    +. Float.log !acc
  end

let log_beta a b = log_gamma a +. log_gamma b -. log_gamma (a +. b)

let log1mexp x =
  if x >= 0.0 then invalid_arg "Special.log1mexp: requires x < 0"
  else if x > -.Float.log 2.0 then Float.log (-.Float.expm1 x)
  else Float.log1p (-.Float.exp x)

let log_sum_exp xs =
  if Array.length xs = 0 then neg_infinity
  else begin
    let m = Array.fold_left Float.max neg_infinity xs in
    if m = neg_infinity then neg_infinity
    else begin
      let s = ref 0.0 in
      Array.iter (fun x -> s := !s +. Float.exp (x -. m)) xs;
      m +. Float.log !s
    end
  end


module Dist = Because_stats.Dist
module Special = Because_stats.Special

type t = Uniform | Beta of { a : float; b : float } | Near_zero

let default = Beta { a = 0.5; b = 0.5 }

let near_zero_a = 1.0
let near_zero_b = 20.0

let beta_params = function
  | Uniform -> (1.0, 1.0)
  | Beta { a; b } -> (a, b)
  | Near_zero -> (near_zero_a, near_zero_b)

let observe_clean t c =
  if c = 0 then t
  else
    let a, b = beta_params t in
    Beta { a; b = b +. float_of_int c }

type density =
  | Flat
  | Beta_density of { a : float; b : float; log_norm : float }

let beta_density a b = Beta_density { a; b; log_norm = Special.log_beta a b }

let density = function
  | Uniform -> Flat
  | (Beta _ | Near_zero) as t ->
      let a, b = beta_params t in
      beta_density a b

let log_density d p =
  match d with
  | Flat -> if p < 0.0 || p > 1.0 then neg_infinity else 0.0
  | Beta_density { a; b; log_norm } ->
      Dist.beta_log_pdf_normed ~a ~b ~log_norm p

let grad_beta ~a ~b p =
  let p = Float.max 1e-12 (Float.min (1.0 -. 1e-12) p) in
  ((a -. 1.0) /. p) -. ((b -. 1.0) /. (1.0 -. p))

let grad_log_density d p =
  match d with Flat -> 0.0 | Beta_density { a; b; _ } -> grad_beta ~a ~b p

let log_pdf t p = log_density (density t) p
let grad_log_pdf t p = grad_log_density (density t) p

let pp fmt = function
  | Uniform -> Format.pp_print_string fmt "uniform"
  | Beta { a; b } -> Format.fprintf fmt "beta(%.2f,%.2f)" a b
  | Near_zero -> Format.pp_print_string fmt "near-zero"

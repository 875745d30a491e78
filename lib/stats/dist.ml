let uniform rng ~lo ~hi = Rng.range_float rng lo hi

let normal rng ~mu ~sigma =
  (* Box–Muller; draw both uniforms fresh to keep streams deterministic
     regardless of how callers interleave. *)
  let u1 = Float.max (Rng.float rng) 1e-300 in
  let u2 = Rng.float rng in
  let r = Float.sqrt (-2.0 *. Float.log u1) in
  mu +. (sigma *. r *. Float.cos (2.0 *. Float.pi *. u2))

let exponential rng ~rate =
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  -.Float.log (Float.max (Rng.float rng) 1e-300) /. rate

let rec gamma rng ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Dist.gamma: shape and scale must be positive";
  if shape < 1.0 then begin
    (* Boost: X ~ Gamma(shape+1), then X * U^(1/shape). *)
    let x = gamma rng ~shape:(shape +. 1.0) ~scale in
    let u = Float.max (Rng.float rng) 1e-300 in
    x *. Float.pow u (1.0 /. shape)
  end
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. Float.sqrt (9.0 *. d) in
    let rec loop () =
      let x = normal rng ~mu:0.0 ~sigma:1.0 in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then loop ()
      else begin
        let v3 = v *. v *. v in
        let u = Rng.float rng in
        if u < 1.0 -. (0.0331 *. x *. x *. x *. x) then d *. v3
        else if
          Float.log (Float.max u 1e-300)
          < (0.5 *. x *. x) +. (d *. (1.0 -. v3 +. Float.log v3))
        then d *. v3
        else loop ()
      end
    in
    scale *. loop ()
  end

let beta rng ~a ~b =
  let x = gamma rng ~shape:a ~scale:1.0 in
  let y = gamma rng ~shape:b ~scale:1.0 in
  x /. (x +. y)

let beta_log_pdf_normed ~a ~b ~log_norm x =
  if x <= 0.0 || x >= 1.0 then neg_infinity
  else
    ((a -. 1.0) *. Float.log x) +. ((b -. 1.0) *. Float.log1p (-.x)) -. log_norm

let beta_log_pdf ~a ~b x =
  beta_log_pdf_normed ~a ~b ~log_norm:(Special.log_beta a b) x

let bernoulli rng ~p = Rng.float rng < p

let categorical rng weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Dist.categorical: weights must sum > 0";
  let u = Rng.float rng *. total in
  let rec find i acc =
    if i = Array.length weights - 1 then i
    else begin
      let acc = acc +. weights.(i) in
      if u < acc then i else find (i + 1) acc
    end
  in
  find 0 0.0

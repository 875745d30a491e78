module Rng = Because_stats.Rng
module Dist = Because_stats.Dist

type result = Driver.result = { chain : Chain.t; acceptance : float }

(* All-float mutable record: stored flat, so loop accumulation through it
   does not allocate (a [float ref] boxes every store). *)
type kacc = { mutable k : float }

(* Complete between-iterations state of [run]; see Metropolis.state for the
   design notes.  [s_position] lives in the *unconstrained* space the
   integrator works in. *)
type state = {
  s_iter : int;
  s_rng : string;
  s_position : float array;
  s_step : float;
  s_log_post : float;
  s_accept_window : int;
  s_kept : float array; (* flat row-major kept draws, kept × dim *)
  s_accepted_post : int;
  s_proposed_post : int;
}

let name = "Hmc.run"
let initial_step = 0.05
let window = 10

let sigmoid x =
  if x >= 0.0 then 1.0 /. (1.0 +. Float.exp (-.x))
  else begin
    let e = Float.exp x in
    e /. (1.0 +. e)
  end

let logit p =
  let p = Float.max 1e-12 (Float.min (1.0 -. 1e-12) p) in
  Float.log (p /. (1.0 -. p))

(* Transformed view of the target in unconstrained space. *)
let transformed target =
  let grad =
    match target.Target.grad_log_density with
    | Some g -> g
    | None -> invalid_arg "Hmc.run: target has no gradient"
  in
  match target.Target.support with
  | Target.Unbounded ->
      (* The copy matters: stored draws must not alias the evolving state. *)
      (target.Target.log_density, grad, Array.copy, Array.copy)
  | Target.Unit_interval ->
      let to_p theta = Array.map sigmoid theta in
      let of_p p = Array.map logit p in
      (* One constrained-space scratch shared by the density and gradient
         closures: both fully consume it before returning (the target never
         retains its argument), so the integrator's per-step transform costs
         zero allocation.  [sigmoid] is inlined by hand — without flambda
         the call would box on every element. *)
      let scratch = Array.make target.Target.dim 0.0 in
      let fill_p theta =
        for i = 0 to Array.length theta - 1 do
          let x = Array.unsafe_get theta i in
          Array.unsafe_set scratch i
            (if x >= 0.0 then 1.0 /. (1.0 +. Float.exp (-.x))
             else begin
               let e = Float.exp x in
               e /. (1.0 +. e)
             end)
        done
      in
      let log_density theta =
        fill_p theta;
        let jacobian = { k = 0.0 } in
        for i = 0 to Array.length theta - 1 do
          let pi = Array.unsafe_get scratch i in
          jacobian.k <-
            jacobian.k +. Float.log (Float.max 1e-300 (pi *. (1.0 -. pi)))
        done;
        target.Target.log_density scratch +. jacobian.k
      in
      let grad_theta theta =
        fill_p theta;
        let g = grad scratch in
        (* Chain rule + Jacobian term, in place on the fresh gradient. *)
        for i = 0 to Array.length g - 1 do
          let pi = Array.unsafe_get scratch i in
          Array.unsafe_set g i
            ((Array.unsafe_get g i *. pi *. (1.0 -. pi))
            +. 1.0
            -. (2.0 *. pi))
        done;
        g
      in
      (log_density, grad_theta, to_p, of_p)

let start ?init ?(leapfrog_steps = 15) ?resume target =
  let dim = target.Target.dim in
  let log_density, grad, to_constrained, of_constrained =
    transformed target
  in
  let theta, step, accept_window, current_lp =
    match resume with
    | Some s ->
        ( Driver.restore ~name ~dim s.s_position,
          ref s.s_step,
          ref s.s_accept_window,
          ref s.s_log_post )
    | None ->
        let theta =
          match (init, target.Target.support) with
          | Some p, Target.Unit_interval -> of_constrained p
          | Some p, Target.Unbounded -> Array.copy p
          | None, _ -> Array.make dim 0.0
        in
        (theta, ref initial_step, ref 0, ref (log_density theta))
  in
  (* Scratch arena: the integrator state is three buffers reused across
     iterations (blit, not copy), so one iteration's array traffic is the
     gradient evaluations, not bookkeeping copies. *)
  let momentum = Array.make dim 0.0 in
  let q = Array.make dim 0.0 in
  let m = Array.make dim 0.0 in
  (* Left-to-right, matching the historical [Array.fold_left] exactly. *)
  let kinetic (v : float array) =
    let acc = { k = 0.0 } in
    for i = 0 to dim - 1 do
      let x = Array.unsafe_get v i in
      acc.k <- acc.k +. (x *. x)
    done;
    0.5 *. acc.k
  in
  let advance rng ~in_burn_in ~sweep =
    (* Fresh Gaussian momentum, unit mass matrix; same draw order as the
       historical [Array.init]. *)
    for i = 0 to dim - 1 do
      momentum.(i) <- Dist.normal rng ~mu:0.0 ~sigma:1.0
    done;
    let h0 = kinetic momentum -. !current_lp in
    Array.blit theta 0 q 0 dim;
    Array.blit momentum 0 m 0 dim;
    let eps = !step in
    (* Leapfrog: half momentum, full position, ..., half momentum. *)
    let g = ref (grad q) in
    for _ = 1 to leapfrog_steps do
      for i = 0 to dim - 1 do
        m.(i) <- m.(i) +. (0.5 *. eps *. !g.(i))
      done;
      for i = 0 to dim - 1 do
        q.(i) <- q.(i) +. (eps *. m.(i))
      done;
      g := grad q;
      for i = 0 to dim - 1 do
        m.(i) <- m.(i) +. (0.5 *. eps *. !g.(i))
      done
    done;
    let lp1 = log_density q in
    let h1 = kinetic m -. lp1 in
    let log_alpha = h0 -. h1 in
    let accept =
      Float.is_finite lp1
      && (log_alpha >= 0.0 || Rng.float rng < Float.exp log_alpha)
    in
    if accept then begin
      Array.blit q 0 theta 0 dim;
      current_lp := lp1;
      if in_burn_in then incr accept_window
    end;
    if in_burn_in && (sweep + 1) mod window = 0 then begin
      let observed = float_of_int !accept_window /. float_of_int window in
      let rate = 1.0 /. Float.sqrt (float_of_int (sweep + 1)) in
      step := !step *. Float.exp (rate *. (observed -. 0.75));
      step := Float.max 1e-4 (Float.min 1.0 !step);
      accept_window := 0
    end;
    if accept then 1 else 0
  in
  let save (p : Driver.progress) =
    {
      s_iter = p.sweep;
      s_rng = p.rng;
      s_position = Array.copy theta;
      s_step = !step;
      s_log_post = !current_lp;
      s_accept_window = !accept_window;
      s_kept = p.kept;
      s_accepted_post = p.accepted;
      s_proposed_post = p.proposed;
    }
  in
  { Driver.dim; log_density = !current_lp; proposals = 1; advance;
    draw = (fun () -> to_constrained theta); save }

let progress s =
  { Driver.sweep = s.s_iter; rng = s.s_rng; kept = s.s_kept;
    accepted = s.s_accepted_post; proposed = s.s_proposed_post }

let run ~rng ?init ?leapfrog_steps ?resume ?control ?embed ~n_samples
    ~burn_in target =
  Driver.run ~name ~rng ?resume:(Option.map progress resume) ?control
    ?embed ~n_samples ~burn_in (start ?init ?leapfrog_steps ?resume target)

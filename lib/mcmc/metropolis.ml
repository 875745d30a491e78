module Rng = Because_stats.Rng
module Dist = Because_stats.Dist

type result = Driver.result = { chain : Chain.t; acceptance : float }

(* Complete mid-run state of [run_single_site], captured between sweeps.
   Everything the next sweep reads is here — including the exact RNG stream
   position and the incremental likelihood cache's sufficient statistics —
   so a run resumed from a snapshot replays the identical trajectory. *)
type state = {
  s_sweep : int;
  s_rng : string;
  s_current : float array;
  s_steps : float array;
  s_log_post : float;
  s_accept_window : int array;
  s_kept : float array; (* flat row-major kept draws, kept × dim *)
  s_accepted_post : int;
  s_proposed_post : int;
  s_cache : float array option;
}

let name = "Metropolis.run_single_site"
let initial_step = 0.2
let window = 25

let rec reflect_unit x =
  if x < 0.0 then reflect_unit (-.x)
  else if x > 1.0 then reflect_unit (2.0 -. x)
  else x

let default_init target =
  match target.Target.support with
  | Target.Unit_interval -> Array.make target.Target.dim 0.5
  | Target.Unbounded -> Array.make target.Target.dim 0.0

let clamp_unit x = Float.max 1e-9 (Float.min (1.0 -. 1e-9) x)

(* Robbins–Monro style log-scale adaptation towards a target acceptance. *)
let adapt_step step ~observed ~target_rate ~sweep =
  let rate = 1.0 /. Float.sqrt (float_of_int (sweep + 1)) in
  let next = step *. Float.exp (rate *. (observed -. target_rate)) in
  Float.max 1e-4 (Float.min 2.0 next)

let start ?init ?resume target =
  let dim = target.Target.dim in
  let restore a = Driver.restore ~name ~dim a in
  let current =
    match resume with
    | Some s -> restore s.s_current
    | None -> (
        match init with Some p -> Array.copy p | None -> default_init target)
  in
  (match target.Target.support with
  | Target.Unit_interval ->
      Array.iteri (fun i v -> current.(i) <- clamp_unit v) current
  | Target.Unbounded -> ());
  let steps, accept_window, log_post =
    match resume with
    | Some s ->
        (restore s.s_steps, restore s.s_accept_window, ref s.s_log_post)
    | None ->
        ( Array.make dim initial_step,
          Array.make dim 0,
          ref (target.Target.log_density current) )
  in
  (* The cache's incremental statistics must continue exactly where the
     snapshot left them — rebuilding from the point recomputes sums that
     differ in the last ulp and would fork the trajectory. *)
  let cache = Target.cache_at target current in
  (match resume with
  | Some { s_cache = Some saved; _ } -> cache.Target.cached_restore saved
  | Some { s_cache = None; _ } ->
      invalid_arg (name ^ ": resume state lacks the cache state")
  | None -> ());
  let advance rng ~in_burn_in ~sweep =
    let accepted = ref 0 in
    for i = 0 to dim - 1 do
      let v' = current.(i) +. Dist.normal rng ~mu:0.0 ~sigma:steps.(i) in
      let v' =
        match target.Target.support with
        | Target.Unit_interval -> clamp_unit (reflect_unit v')
        | Target.Unbounded -> v'
      in
      let d = cache.Target.cached_delta i v' in
      if d >= 0.0 || Rng.float rng < Float.exp d then begin
        cache.Target.cached_commit i v';
        current.(i) <- v';
        log_post := !log_post +. d;
        if in_burn_in then accept_window.(i) <- accept_window.(i) + 1
        else incr accepted
      end
    done;
    if in_burn_in && (sweep + 1) mod window = 0 then
      Array.iteri
        (fun i acc ->
          let observed = float_of_int acc /. float_of_int window in
          steps.(i) <-
            adapt_step steps.(i) ~observed ~target_rate:0.44 ~sweep;
          accept_window.(i) <- 0)
        accept_window;
    !accepted
  in
  let save (p : Driver.progress) =
    {
      s_sweep = p.sweep;
      s_rng = p.rng;
      s_current = Array.copy current;
      s_steps = Array.copy steps;
      s_log_post = !log_post;
      s_accept_window = Array.copy accept_window;
      s_kept = p.kept;
      s_accepted_post = p.accepted;
      s_proposed_post = p.proposed;
      s_cache = Some (cache.Target.cached_state ());
    }
  in
  { Driver.dim; log_density = !log_post; proposals = dim; advance;
    draw = (fun () -> current); save }

let progress s =
  { Driver.sweep = s.s_sweep; rng = s.s_rng; kept = s.s_kept;
    accepted = s.s_accepted_post; proposed = s.s_proposed_post }

let run_single_site ~rng ?init ?resume ?control ?embed ~n_samples
    ~burn_in target =
  Driver.run ~name ~rng ?resume:(Option.map progress resume) ?control
    ?embed ~n_samples ~burn_in (start ?init ?resume target)

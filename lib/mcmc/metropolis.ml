module Rng = Because_stats.Rng
module Dist = Because_stats.Dist

type result = {
  chain : Chain.t;
  acceptance : float;
  step_sizes : float array;
}

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

let run_single_site ~rng ?init ?(initial_step = 0.2) ?(thin = 1) ?resume
    ?control ~n_samples ~burn_in target =
  if thin <= 0 then
    invalid_arg "Metropolis.run_single_site: thin must be positive";
  let dim = target.Target.dim in
  (* A resumed run continues the *saved* stream; the caller's rng is left
     untouched (it was never consumed before the snapshot either). *)
  let rng =
    match resume with Some s -> Rng.of_state s.s_rng | None -> rng
  in
  let current =
    match resume with
    | Some s ->
        if Array.length s.s_current <> dim then
          invalid_arg
            "Metropolis.run_single_site: resume state dimension mismatch";
        Array.copy s.s_current
    | None -> (
        match init with Some p -> Array.copy p | None -> default_init target)
  in
  (match target.Target.support with
  | Target.Unit_interval ->
      Array.iteri (fun i v -> current.(i) <- clamp_unit v) current
  | Target.Unbounded -> ());
  let steps =
    match resume with
    | Some s ->
        if Array.length s.s_steps <> dim then
          invalid_arg
            "Metropolis.run_single_site: resume state dimension mismatch";
        Array.copy s.s_steps
    | None -> Array.make dim initial_step
  in
  let log_post =
    match resume with
    | Some s -> ref s.s_log_post
    | None ->
        let lp = target.Target.log_density current in
        if not (Float.is_finite lp) then
          failwith
            (Printf.sprintf
               "Metropolis.run_single_site: non-finite log-density (%g) at \
                the initial point [%s] — the target is broken or the \
                initializer lies outside its support"
               lp
               (String.concat "; "
                  (Array.to_list (Array.map (Printf.sprintf "%g") current))));
        ref lp
  in
  let accept_window =
    match resume with
    | Some s ->
        if Array.length s.s_accept_window <> dim then
          invalid_arg
            "Metropolis.run_single_site: resume state dimension mismatch";
        Array.copy s.s_accept_window
    | None -> Array.make dim 0
  in
  let window = 25 in
  let kept = Chain.Builder.create ~dim ~capacity:n_samples in
  (match resume with
  | Some s ->
      if Array.length s.s_kept > n_samples * dim then
        invalid_arg
          "Metropolis.run_single_site: resume state has more draws than \
           n_samples";
      (match Chain.Builder.load_flat kept s.s_kept with
      | () -> ()
      | exception Invalid_argument _ ->
          invalid_arg
            "Metropolis.run_single_site: resume state dimension mismatch")
  | None -> ());
  let accepted_post = ref 0 and proposed_post = ref 0 in
  (match resume with
  | Some s ->
      accepted_post := s.s_accepted_post;
      proposed_post := s.s_proposed_post
  | None -> ());
  let propose i =
    let v = current.(i) in
    let v' = v +. Dist.normal rng ~mu:0.0 ~sigma:steps.(i) in
    match target.Target.support with
    | Target.Unit_interval -> clamp_unit (reflect_unit v')
    | Target.Unbounded -> v'
  in
  (* Prefer the stateful protocol: deltas are O(1) per affected observation
     and rejections are free.  Fall back to the stateless delta, then to a
     full recompute. *)
  let cache = Option.map (fun mk -> mk current) target.Target.make_cache in
  (* The cache's incremental statistics must continue exactly where the
     snapshot left them — rebuilding from the point recomputes sums that
     differ in the last ulp and would fork the trajectory. *)
  (match resume with
  | Some s -> (
      match (cache, s.s_cache) with
      | Some c, Some saved -> c.Target.cached_restore saved
      | None, None -> ()
      | Some _, None ->
          invalid_arg
            "Metropolis.run_single_site: resume state lacks the cache state \
             this target requires"
      | None, Some _ ->
          invalid_arg
            "Metropolis.run_single_site: resume state carries a cache state \
             but the target has no cache")
  | None -> ());
  let delta_at i v' =
    match cache with
    | Some c -> c.Target.cached_delta i v'
    | None -> (
        match target.Target.log_density_delta with
        | Some delta -> delta current i v'
        | None ->
            let p' = Target.with_coordinate current i v' in
            target.Target.log_density p' -. !log_post)
  in
  let commit i v' =
    (match cache with Some c -> c.Target.cached_commit i v' | None -> ());
    current.(i) <- v'
  in
  let sweep_idx =
    ref (match resume with Some s -> s.s_sweep | None -> 0)
  in
  let snapshot () =
    {
      s_sweep = !sweep_idx;
      s_rng = Rng.state rng;
      s_current = Array.copy current;
      s_steps = Array.copy steps;
      s_log_post = !log_post;
      s_accept_window = Array.copy accept_window;
      (* One flat copy of the kept prefix — the old representation copied
         every row twice (sub + map copy). *)
      s_kept = Chain.Builder.flat_prefix kept;
      s_accepted_post = !accepted_post;
      s_proposed_post = !proposed_post;
      s_cache = Option.map (fun c -> c.Target.cached_state ()) cache;
    }
  in
  let total_sweeps = burn_in + (n_samples * thin) in
  let finished = ref (Chain.Builder.count kept >= n_samples) in
  while not !finished do
    let in_burn_in = !sweep_idx < burn_in in
    for i = 0 to dim - 1 do
      let v' = propose i in
      let d = delta_at i v' in
      let accept = d >= 0.0 || Rng.float rng < Float.exp d in
      if not in_burn_in then incr proposed_post;
      if accept then begin
        commit i v';
        log_post := !log_post +. d;
        if in_burn_in then accept_window.(i) <- accept_window.(i) + 1
        else incr accepted_post
      end
    done;
    if in_burn_in && (!sweep_idx + 1) mod window = 0 then
      Array.iteri
        (fun i acc ->
          let observed = float_of_int acc /. float_of_int window in
          steps.(i) <-
            adapt_step steps.(i) ~observed ~target_rate:0.44
              ~sweep:!sweep_idx;
          accept_window.(i) <- 0)
        accept_window;
    if not in_burn_in then begin
      let post_sweep = !sweep_idx - burn_in in
      if post_sweep mod thin = 0 && Chain.Builder.count kept < n_samples then
        Chain.Builder.push kept current
    end;
    incr sweep_idx;
    if Chain.Builder.count kept >= n_samples then finished := true;
    (* Defensive: the loop is bounded by construction, but guard anyway. *)
    if !sweep_idx > total_sweeps + thin then finished := true;
    (* Supervision / checkpoint hook: the state thunk is only materialised
       when the supervisor actually saves.  Exceptions (budget aborts,
       simulated kills) propagate to the caller. *)
    match control with
    | Some f -> f ~sweep:!sweep_idx ~state:snapshot
    | None -> ()
  done;
  let acceptance =
    if !proposed_post = 0 then 0.0
    else float_of_int !accepted_post /. float_of_int !proposed_post
  in
  { chain = Chain.Builder.to_chain kept; acceptance; step_sizes = steps }

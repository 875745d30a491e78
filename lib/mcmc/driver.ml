module Rng = Because_stats.Rng

type progress = {
  sweep : int;
  rng : string;
  kept : float array;
  accepted : int;
  proposed : int;
}

type 's step = {
  dim : int;
  log_density : float;
  proposals : int;
  advance : Rng.t -> in_burn_in:bool -> sweep:int -> int;
  draw : unit -> float array;
  save : progress -> 's;
}

type result = { chain : Chain.t; acceptance : float }

let restore ~name ~dim a =
  if Array.length a <> dim then
    invalid_arg (name ^ ": resume state dimension mismatch");
  Array.copy a

let run ~name ~rng ?resume ?control ?embed ~n_samples ~burn_in step =
  if resume = None && not (Float.is_finite step.log_density) then
    failwith
      (Printf.sprintf
         "%s: non-finite log-density (%g) at the initial point — the target \
          is broken or the initializer lies outside its support"
         name step.log_density);
  (* A resumed run continues the *saved* stream; the caller's rng is left
     untouched (it was never consumed before the snapshot either). *)
  let rng = match resume with Some p -> Rng.of_state p.rng | None -> rng in
  let kept =
    match embed with
    | None -> Chain.Builder.create ~dim:step.dim ~capacity:n_samples
    | Some e -> Chain.Builder.embedded e ~dim:step.dim ~capacity:n_samples
  in
  let sweep = ref 0 and accepted = ref 0 and proposed = ref 0 in
  (match resume with
  | Some p ->
      (try Chain.Builder.load_flat kept p.kept
       with Invalid_argument _ ->
         invalid_arg
           (name ^ ": resume state's kept draws do not fit dim × n_samples"));
      sweep := p.sweep;
      accepted := p.accepted;
      proposed := p.proposed
  | None -> ());
  (* Materialised only when a supervisor actually saves. *)
  let state () =
    step.save
      {
        sweep = !sweep;
        rng = Rng.state rng;
        kept = Chain.Builder.flat_prefix kept;
        accepted = !accepted;
        proposed = !proposed;
      }
  in
  while Chain.Builder.count kept < n_samples do
    let in_burn_in = !sweep < burn_in in
    let a = step.advance rng ~in_burn_in ~sweep:!sweep in
    if not in_burn_in then begin
      accepted := !accepted + a;
      proposed := !proposed + step.proposals;
      Chain.Builder.push kept (step.draw ())
    end;
    incr sweep;
    (* Exceptions (budget aborts, simulated kills) propagate untouched. *)
    match control with Some f -> f ~sweep:!sweep ~state | None -> ()
  done;
  let acceptance =
    if !proposed = 0 then 0.0
    else float_of_int !accepted /. float_of_int !proposed
  in
  { chain = Chain.Builder.to_chain kept; acceptance }

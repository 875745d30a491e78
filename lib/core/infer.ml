module Chain = Because_mcmc.Chain
module Metropolis = Because_mcmc.Metropolis
module Hmc = Because_mcmc.Hmc
module Diagnostics = Because_mcmc.Diagnostics
module Rng = Because_stats.Rng
module Target = Because_mcmc.Target
module Tel = Because_telemetry.Registry
module Supervise = Because_recover.Supervise
module Chain_ckpt = Because_recover.Chain_ckpt
module Sampler_state = Because_recover.Sampler_state

type config = {
  n_samples : int;
  burn_in : int;
  thin : int;
  prior : Prior.t;
  node_priors : (Because_bgp.Asn.t * Prior.t) list;
  false_negative_rate : float;
  leapfrog_steps : int;
  run_mh : bool;
  run_hmc : bool;
  max_restarts : int;
  n_chains : int;
  jobs : int;
  telemetry : Tel.t;
  supervise : Supervise.budget;
  checkpoint : Chain_ckpt.hooks option;
  init : float array option;
}

let default_config =
  {
    n_samples = 1000;
    burn_in = 500;
    thin = 1;
    prior = Prior.default;
    node_priors = [];
    false_negative_rate = 0.0;
    leapfrog_steps = 12;
    run_mh = true;
    run_hmc = true;
    max_restarts = 2;
    n_chains = 1;
    jobs = 1;
    telemetry = Tel.disabled;
    supervise = Supervise.unlimited;
    checkpoint = None;
    init = None;
  }

type sampler_run = {
  name : string;
  chain_index : int;
  chain : Chain.t;
  acceptance : float;
}

type result = {
  model : Model.t;
  runs : sampler_run list;
  warnings : string list;
  aborted : string list;
}

let chain_healthy chain = Chain.for_all_values Float.is_finite chain

(* Attempt 0 runs on the task's own pre-split generator, so for the default
   single-chain configuration a healthy run consumes exactly the one
   [Rng.split] per sampler the sequential code always did; retries split
   fresh streams off the task generator only after a failure, never touching
   any other task's stream.

   Resume replays the split discipline exactly: a snapshot taken during
   attempt [k] records the [k] warnings of the earlier failed attempts, so
   the resumed process consumes the same [k] splits off the task generator
   before continuing — later retries therefore see the very streams the
   uninterrupted run would have given them, and even a
   fail-after-resume trajectory stays bit-for-bit identical. *)
let run_with_restarts ~config ~rng ~name ~chain_index sample =
  let max_restarts = config.max_restarts in
  let key = Printf.sprintf "%s.chain%d" name chain_index in
  let final_sweep = config.burn_in + (config.n_samples * config.thin) in
  let saved =
    match config.checkpoint with
    | None -> None
    | Some hooks -> hooks.Chain_ckpt.load ~key
  in
  (* [warnings] accumulates newest-first, so its length is always the
     current attempt index — also the invariant the snapshot relies on. *)
  let resume0, warnings0 =
    match saved with
    | Some sv -> (Some sv.Chain_ckpt.state, sv.Chain_ckpt.prior_warnings)
    | None -> (None, [])
  in
  let unusable = ref None in
  let k0 = List.length warnings0 in
  for _ = 2 to k0 do
    ignore (Rng.split rng)
  done;
  let rec attempt k warnings ~resume =
    (* A restart is an in-process recomputation on a fresh split, so it
       starts at once: waiting first would change nothing. *)
    let attempt_rng = if k = 0 then rng else Rng.split rng in
    let token = Supervise.start ~label:key config.supervise in
    (* Every chain gets a control callback so a process-wide drain request
       (SIGTERM, service shutdown) reaches it at the next sweep boundary.
       With checkpoint hooks the drain writes one final snapshot first —
       resuming loses no work; without them it just stops.  The drain check
       is an atomic load and never touches an RNG stream, so results stay
       bit-for-bit identical to the control-free path. *)
    let control =
      match config.checkpoint with
      | None ->
          if Supervise.is_unlimited config.supervise then
            Some (fun ~sweep:_ ~state:_ -> Supervise.check_drain ())
          else
            Some
              (fun ~sweep:_ ~state:_ ->
                Supervise.check_drain ();
                Supervise.tick token)
      | Some hooks ->
          let save_ctl =
            Chain_ckpt.make_control hooks ~key ~final_sweep
              ~prior_warnings:warnings
          in
          Some
            (fun ~sweep ~state ->
              if Supervise.draining () then begin
                Chain_ckpt.save_now hooks ~key ~prior_warnings:warnings
                  ~sweep ~state;
                raise Supervise.Drained
              end;
              Supervise.tick token;
              save_ctl ~sweep ~state)
    in
    let run_sample resume =
      match sample attempt_rng ~resume ~control with
      | chain, acceptance ->
          if chain_healthy chain then `Ok (chain, acceptance)
          else `Diverged "chain contains non-finite draws"
      | exception Failure msg -> `Diverged msg
      | exception Supervise.Aborted reason -> `Aborted reason
    in
    (* A snapshot the sampler rejects (a dimension or cache-state size
       that does not fit this dataset, e.g. one written by a build with a
       different cache layout) is unusable, not fatal: the attempt runs
       cold on the same generator — a resumed sampler never touches it —
       so it draws exactly what an attempt without the snapshot would. *)
    let outcome =
      match resume with
      | None -> run_sample None
      | Some _ -> (
          try run_sample resume
          with Invalid_argument msg ->
            unusable :=
              Some
                (Printf.sprintf
                   "%s: checkpoint snapshot unusable (%s); started cold" key
                   msg);
            run_sample None)
    in
    match outcome with
    | `Ok (chain, acceptance) ->
        (Some { name; chain_index; chain; acceptance }, List.rev warnings, None)
    | `Diverged msg ->
        let warnings =
          Printf.sprintf "%s attempt %d/%d diverged: %s" name (k + 1)
            (max_restarts + 1) msg
          :: warnings
        in
        if k >= max_restarts then
          ( None,
            List.rev
              (Printf.sprintf "%s disabled: no healthy chain in %d attempts"
                 name (max_restarts + 1)
              :: warnings),
            None )
        else attempt (k + 1) warnings ~resume:None
    | `Aborted reason ->
        (* Budget exhaustion is terminal, not a divergence: retrying would
           burn the same budget again.  The caller degrades gracefully. *)
        ( None,
          List.rev
            (Printf.sprintf "%s disabled: %s" name reason :: warnings),
          Some reason )
  in
  let run, warnings, aborted = attempt k0 warnings0 ~resume:resume0 in
  (run, Option.to_list !unusable @ warnings, aborted)

(* Work-stealing over a fixed task array (shared with the simulator's shard
   driver): result order — and, thanks to per-task pre-split generators, the
   output *values* — are identical for every [jobs]. *)
let run_tasks ~jobs tasks = Because_stats.Parallel.run_tasks ~jobs tasks

(* Each sampler's chains, in first-run order. *)
let sampler_groups runs =
  let names =
    List.fold_left
      (fun acc run -> if List.mem run.name acc then acc else run.name :: acc)
      [] runs
  in
  List.rev_map
    (fun name ->
      ( name,
        Array.of_list
          (List.filter_map
             (fun run -> if run.name = name then Some run.chain else None)
             runs) ))
    names

(* Worst-coordinate R-hat per sampler: across-chain R-hat when the sampler
   ran several chains, split-R-hat on its single chain.  The [_coord]
   diagnostics walk the chains' flat storage directly — bit-identical to
   extracting each marginal, without the per-coordinate array
   materialisation. *)
let r_hat result =
  List.map
    (fun (name, chains) ->
      let worst = ref neg_infinity in
      for i = 0 to Chain.dim chains.(0) - 1 do
        let v =
          match chains with
          | [| only |] -> Diagnostics.split_r_hat_coord only i
          | _ -> Diagnostics.r_hat_coord chains i
        in
        if v > !worst then worst := v
      done;
      (name, !worst))
    (sampler_groups result.runs)

let gate_points = 16

(* The gate asks, per prefix length n on the grid, whether the worst R-hat
   over every sampler and coordinate is within [threshold]: [r_hat] over
   each chain's first n draws.  Two things keep that cheap without
   changing the answer:
   - each (sampler, coordinate) pair copies its chains' first n values
     into one column scratch per chain, which the diagnostics scan
     contiguously in the order a prefix copy of the chain would be read;
   - a length fails at the first pair over the threshold, trying first the
     pair that failed the previous length.  (A NaN R-hat never fails, just
     as it never raised the worst.) *)
let gate_draws ?(threshold = 1.1) result =
  match result.runs with
  | [] -> None
  | runs ->
      let min_len =
        List.fold_left (fun acc r -> min acc (Chain.length r.chain)) max_int
          runs
      in
      if min_len < 8 then None
      else begin
        (* Scan a coarse grid of prefix lengths (smallest first) instead of
           every length: the gate is a measurement, not a stopping rule, so
           grid resolution only quantises the reported saving. *)
        let grid =
          List.init gate_points (fun k ->
              max 8 (min_len * (k + 1) / gate_points))
          |> List.sort_uniq compare
        in
        let groups =
          Array.of_list
            (List.map
               (fun (_, chains) ->
                 (chains, Array.map (fun _ -> Array.make min_len 0.0) chains))
               (sampler_groups runs))
        in
        let dim = Chain.dim (List.hd runs).chain in
        let fails n (g, i) =
          let chains, cols = groups.(g) in
          Array.iteri
            (fun c chain -> Chain.marginal_into chain i ~len:n cols.(c))
            chains;
          let v =
            match cols with
            | [| col |] -> Diagnostics.split_r_hat_prefix col n
            | _ -> Diagnostics.r_hat_prefix cols n
          in
          v > threshold
        in
        let last_failure = ref (0, 0) in
        let passes n =
          (not (fails n !last_failure))
          &&
          try
            for g = 0 to Array.length groups - 1 do
              for i = 0 to dim - 1 do
                if fails n (g, i) then begin
                  last_failure := (g, i);
                  raise_notrace Exit
                end
              done
            done;
            true
          with Exit -> false
        in
        List.find_opt passes grid
      end

(* Runs inside the worker domain, so the counters land in that domain's
   telemetry shard without contention.  Work counters are exact replays of
   the sampler's loop structure — sweeps and per-sweep evaluation counts are
   fixed by the config, not by the chain's trajectory. *)
let flush_chain_telemetry reg config ~target ~name ~chain_index outcome =
  let run_opt, warnings, aborted = outcome in
  (match aborted with
  | Some _ -> Tel.Counter.add (Tel.Counter.v reg "mcmc.aborts") 1
  | None -> ());
  let sweeps = config.burn_in + (config.n_samples * config.thin) in
  Tel.Counter.add (Tel.Counter.v reg "mcmc.sweeps") sweeps;
  let dim = target.Target.dim in
  (if name = "MH" then
     Tel.Counter.add (Tel.Counter.v reg "mcmc.mh.deltas_cached") (dim * sweeps)
   else
     Tel.Counter.add
       (Tel.Counter.v reg "mcmc.hmc.grad_evals")
       (config.leapfrog_steps * sweeps));
  match run_opt with
  | Some r ->
      Tel.Gauge.set
        (Tel.Gauge.v reg
           (Printf.sprintf "mcmc.%s.chain%d.acceptance" name chain_index))
        r.acceptance;
      (* Each warning of a healthy run is one diverged attempt = one
         restart (a cold start after an unusable snapshot counts as one). *)
      Tel.Counter.add (Tel.Counter.v reg "mcmc.restarts")
        (List.length warnings)
  | None ->
      (* A dropped chain logs one warning per attempt plus a "disabled"
         note; restarts are the attempts beyond the first.  An aborted
         chain logs the disabled note without a per-attempt warning for
         its final (interrupted) attempt. *)
      let extra_notes = if aborted = None then 2 else 1 in
      Tel.Counter.add (Tel.Counter.v reg "mcmc.restarts")
        (max 0 (List.length warnings - extra_notes))

(* The one resume/control adapter between a sampler's own state record and
   the checkpoint layer's [Sampler_state.t].  A saved state for a different
   sampler (possible only through key collision in a hand-edited store) is
   ignored rather than trusted. *)
let adapt run ~wrap ~unwrap rng ~resume ~control =
  let r : Because_mcmc.Driver.result =
    run rng (Option.bind resume unwrap)
      (Option.map
         (fun f ~sweep ~state -> f ~sweep ~state:(fun () -> wrap (state ())))
         control)
  in
  (r.chain, r.acceptance)

let run ~rng ?(config = default_config) data =
  if not (config.run_mh || config.run_hmc) then
    invalid_arg "Infer.run: at least one sampler must be enabled";
  if config.max_restarts < 0 then
    invalid_arg "Infer.run: max_restarts must be non-negative";
  if config.n_chains < 1 then
    invalid_arg "Infer.run: n_chains must be positive";
  if config.jobs < 1 then invalid_arg "Infer.run: jobs must be positive";
  if config.thin < 1 then invalid_arg "Infer.run: thin must be positive";
  let model =
    Model.create ~prior:config.prior ~node_priors:config.node_priors
      ~false_negative_rate:config.false_negative_rate data
  in
  let target = Model.target model in
  (* The model and target are immutable and shared read-only across domains;
     all mutable sampler state (including the likelihood cache) is created
     inside each sampler call. *)
  let mh rng resume control =
    Metropolis.run_single_site ~rng ~thin:config.thin ?resume ?control
      ?init:config.init ~n_samples:config.n_samples ~burn_in:config.burn_in
      target
  in
  let hmc rng resume control =
    Hmc.run ~rng ~leapfrog_steps:config.leapfrog_steps ~thin:config.thin
      ?resume ?control ?init:config.init ~n_samples:config.n_samples
      ~burn_in:config.burn_in target
  in
  let sampler_specs =
    (if config.run_mh then
       [ ( "MH",
           adapt mh
             ~wrap:(fun s -> Sampler_state.Mh s)
             ~unwrap:(function Sampler_state.Mh s -> Some s | _ -> None) ) ]
     else [])
    @
    if config.run_hmc then
      [ ( "HMC",
          adapt hmc
            ~wrap:(fun s -> Sampler_state.Hmc s)
            ~unwrap:(function Sampler_state.Hmc s -> Some s | _ -> None) ) ]
    else []
  in
  let specs =
    List.concat_map
      (fun (name, sample) ->
        List.init config.n_chains (fun k -> (name, k, sample)))
      sampler_specs
  in
  (* All task generators are split off the caller's stream before anything
     runs: execution order cannot perturb them. *)
  let task_rngs = Rng.split_n rng (List.length specs) in
  let tasks =
    List.mapi
      (fun idx (name, chain_index, sample) ->
        fun () ->
          Tel.Span.with_ config.telemetry
            ~name:(Printf.sprintf "infer.%s.chain%d" name chain_index)
            (fun () ->
              let outcome =
                run_with_restarts ~config ~rng:task_rngs.(idx) ~name
                  ~chain_index sample
              in
              if Tel.is_enabled config.telemetry then
                flush_chain_telemetry config.telemetry config ~target ~name
                  ~chain_index outcome;
              outcome))
      specs
  in
  let outcomes = run_tasks ~jobs:config.jobs (Array.of_list tasks) in
  let runs =
    List.filter_map (fun (run, _, _) -> run) (Array.to_list outcomes)
  in
  let warnings =
    List.concat_map (fun (_, ws, _) -> ws) (Array.to_list outcomes)
  in
  let aborted =
    List.filter_map (fun (_, _, ab) -> ab) (Array.to_list outcomes)
  in
  let result = { model; runs; warnings; aborted } in
  if Tel.is_enabled config.telemetry && runs <> [] then
    List.iter
      (fun (name, v) ->
        Tel.Gauge.set (Tel.Gauge.v config.telemetry ("mcmc.rhat." ^ name)) v)
      (r_hat result);
  result

let combined_chain result =
  match result.runs with
  | [] -> invalid_arg "Infer.combined_chain: no sampler runs"
  | runs -> Chain.concat (List.map (fun run -> run.chain) runs)

let dataset result = Model.dataset result.model

let status result =
  if result.aborted <> [] then Supervise.Degraded result.aborted
  else if result.runs = [] then
    Supervise.Degraded
      (match result.warnings with
      | [] -> [ "every sampler chain was dropped" ]
      | ws -> ws)
  else Supervise.Healthy

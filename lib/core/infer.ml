module Chain = Because_mcmc.Chain
module Metropolis = Because_mcmc.Metropolis
module Hmc = Because_mcmc.Hmc
module Diagnostics = Because_mcmc.Diagnostics
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Tel = Because_telemetry.Registry
module Supervise = Because_recover.Supervise
module Chain_ckpt = Because_recover.Chain_ckpt
module Sampler_state = Because_recover.Sampler_state

type config = {
  n_samples : int;
  burn_in : int;
  prior : Prior.t;
  node_priors : (Because_bgp.Asn.t * Prior.t) list;
  false_negative_rate : float;
  leapfrog_steps : int;
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
    prior = Prior.default;
    node_priors = [];
    false_negative_rate = 0.0;
    leapfrog_steps = 12;
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

(* One chain, run once on the task's own pre-split generator: a chain that
   diverges ([Driver.run]'s non-finite start, or non-finite draws) is
   dropped with one warning.  A rerun could only repeat the failure, which
   depends on the start point and not on the generator. *)
let run_chain ~config ~layout ~rng ~name ~chain_index sample =
  let key = Printf.sprintf "%s.chain%d" name chain_index in
  let unusable = ref None in
  let unusable_note reason =
    unusable :=
      Some
        (Printf.sprintf "%s: checkpoint snapshot unusable (%s); started cold"
           key reason)
  in
  (* A snapshot of another layout is ignored whole, even where its sizes
     would fit: its coordinates are other nodes, or the same nodes under
     another target. *)
  let resume =
    match config.checkpoint with
    | None -> None
    | Some hooks -> (
        match hooks.Chain_ckpt.load ~key with
        | Some sv when sv.Chain_ckpt.layout <> layout ->
            unusable_note "written for another chain layout";
            None
        | saved -> Option.map (fun sv -> sv.Chain_ckpt.state) saved)
  in
  let token = Supervise.start ~label:key config.supervise in
  let cadence =
    Option.map
      (fun hooks ->
        Chain_ckpt.make_control hooks ~key ~layout
          ~final_sweep:(config.burn_in + config.n_samples))
      config.checkpoint
  in
  (* Every chain gets this control callback so a process-wide drain request
     (SIGTERM, service shutdown) reaches it at the next sweep boundary.
     With checkpoint hooks the drain writes one final snapshot first —
     resuming loses no work; without them it just stops.  Neither the drain
     check nor the budget tick touches an RNG stream, so results stay
     bit-for-bit identical to a control-free run. *)
  let control ~sweep ~state =
    if Supervise.draining () then begin
      Option.iter
        (fun hooks -> Chain_ckpt.save_now hooks ~key ~layout ~sweep ~state)
        config.checkpoint;
      raise Supervise.Drained
    end;
    Supervise.tick token;
    Option.iter (fun save -> save ~sweep ~state) cadence
  in
  let run_sample resume =
    match sample rng ~resume ~control with
    | chain, acceptance ->
        if chain_healthy chain then `Ok (chain, acceptance)
        else `Diverged "chain contains non-finite draws"
    | exception Failure msg -> `Diverged msg
    | exception Supervise.Aborted reason -> `Aborted reason
  in
  (* A snapshot the sampler rejects (a dimension or cache-state size that
     does not fit this dataset, e.g. one written by a build with a
     different cache layout) is unusable, not fatal: the chain runs cold on
     the same generator — a resumed sampler never touches it — so it draws
     exactly what a chain without the snapshot would. *)
  let outcome =
    match resume with
    | None -> run_sample None
    | Some _ -> (
        try run_sample resume
        with Invalid_argument msg ->
          unusable_note msg;
          run_sample None)
  in
  let notes = Option.to_list !unusable in
  let dropped why = notes @ [ Printf.sprintf "%s disabled: %s" name why ] in
  match outcome with
  | `Ok (chain, acceptance) ->
      (Some { name; chain_index; chain; acceptance }, notes, None)
  | `Diverged msg -> (None, dropped ("diverged: " ^ msg), None)
  | `Aborted reason -> (None, dropped reason, Some reason)

(* Work-stealing over a fixed task array (shared with the simulator's shard
   driver): result order — and, thanks to per-task pre-split generators, the
   output *values* — are identical for every [jobs]. *)
let run_tasks ~jobs tasks = Because_stats.Parallel.run_tasks ~jobs tasks

(* Each sampler's chains, in first-run order, with one column scratch per
   chain. *)
let sampler_groups runs =
  let names =
    List.fold_left
      (fun acc run -> if List.mem run.name acc then acc else run.name :: acc)
      [] runs
  in
  List.rev_map
    (fun name ->
      let chains =
        Array.of_list
          (List.filter_map
             (fun run -> if run.name = name then Some run.chain else None)
             runs)
      in
      let cols = Array.map (fun c -> Array.make (Chain.length c) 0.0) chains in
      (name, (chains, cols)))
    names

(* R-hat of coordinate [i] over the first [n] draws of one sampler's chains:
   across-chain R-hat when it ran several, split-R-hat on its single chain.
   Each chain's first n values are copied into its column scratch, so the
   value equals [Diagnostics.r_hat] / [split_r_hat] over the marginals cut
   to n draws, bit for bit. *)
let prefix_r_hat (chains, cols) i n =
  Array.iteri
    (fun c chain -> Chain.marginal_into chain i ~len:n cols.(c))
    chains;
  match cols with
  | [| col |] -> Diagnostics.split_r_hat_prefix col n
  | _ -> Diagnostics.r_hat_prefix cols n

let r_hat result =
  List.map
    (fun (name, ((chains, _) as group)) ->
      let n = Chain.length chains.(0) in
      let worst = ref neg_infinity in
      for i = 0 to Chain.dim chains.(0) - 1 do
        let v = prefix_r_hat group i n in
        if v > !worst then worst := v
      done;
      (name, !worst))
    (sampler_groups result.runs)

let gate_points = 16

(* The gate asks, per prefix length n on the grid, whether the worst
   [prefix_r_hat] over every sampler and coordinate is within [threshold].
   A length fails at the first pair over the threshold, trying first the
   pair that failed the previous length.  (A NaN R-hat never fails, just as
   it never raised the worst.) *)
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
        let groups = Array.of_list (List.map snd (sampler_groups runs)) in
        let dim = Chain.dim (List.hd runs).chain in
        let fails n (g, i) = prefix_r_hat groups.(g) i n > threshold in
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
let flush_chain_telemetry reg config ~dim ~name ~chain_index outcome =
  let run_opt, _, aborted = outcome in
  (match aborted with
  | Some _ -> Tel.Counter.add (Tel.Counter.v reg "mcmc.aborts") 1
  | None -> ());
  (* [dim] counts the sampled coordinates; with none, no sampler ran. *)
  let sweeps = if dim = 0 then 0 else config.burn_in + config.n_samples in
  Tel.Counter.add (Tel.Counter.v reg "mcmc.sweeps") sweeps;
  (if name = "MH" then
     Tel.Counter.add (Tel.Counter.v reg "mcmc.mh.deltas_cached") (dim * sweeps)
   else
     Tel.Counter.add
       (Tel.Counter.v reg "mcmc.hmc.grad_evals")
       (config.leapfrog_steps * sweeps));
  Option.iter
    (fun r ->
      Tel.Gauge.set
        (Tel.Gauge.v reg
           (Printf.sprintf "mcmc.%s.chain%d.acceptance" name chain_index))
        r.acceptance)
    run_opt

(* The one resume/control adapter between a sampler's own state record and
   the checkpoint layer's [Sampler_state.t].  A saved state for a different
   sampler (possible only through key collision in a hand-edited store) is
   ignored rather than trusted. *)
let adapt run ~wrap ~unwrap rng ~resume ~control =
  let r : Because_mcmc.Driver.result =
    run rng (Option.bind resume unwrap) (fun ~sweep ~state ->
        control ~sweep ~state:(fun () -> wrap (state ())))
  in
  (r.chain, r.acceptance)

type split = {
  sampled : Model.t option;
  coupled : int array;
  exact : int array;
  exact_beta : (float * float) array;
  clean : int array;
  layout : string;
}

(* cᵢ with multiplicity: a node listed twice on a path pays ln qᵢ twice in
   the likelihood, so it counts twice here. *)
let clean_counts data =
  let clean = Array.make (Tomography.n_nodes data) 0 in
  let off = Tomography.path_offsets data in
  let nodes = Tomography.path_nodes data in
  for j = 0 to Tomography.n_paths data - 1 do
    let c = Tomography.n_clean data j in
    for m = off.(j) to off.(j + 1) - 1 do
      clean.(nodes.(m)) <- clean.(nodes.(m)) + c
    done
  done;
  clean

(* [full] is the model of the whole dataset under [config]: the identity
   split samples it as it is. *)
let split_of ~full config data =
  let n = Tomography.n_nodes data in
  let clean = clean_counts data in
  if config.false_negative_rate <> 0.0 then
    { sampled = Some full; coupled = Array.init n Fun.id; exact = [||];
      exact_beta = [||]; clean; layout = "" }
  else begin
    let priors = Array.make n config.prior in
    List.iter
      (fun (asn, p) ->
        match Tomography.index_of data asn with
        | Some i -> priors.(i) <- p
        | None -> ())
      config.node_priors;
    let folded i = Prior.observe_clean priors.(i) clean.(i) in
    let sampled, coupled =
      if Tomography.rfd_path_count data = 0 then (None, [||])
      else begin
        let reduced, coupled = Tomography.positive_part data in
        ( Some
            (Model.create ~prior:config.prior
               ~node_priors:
                 (Array.to_list
                    (Array.map (fun i -> (Tomography.node data i, folded i))
                       coupled))
               reduced),
          coupled )
      end
    in
    let on_rfd = Array.make n false in
    Array.iter (fun i -> on_rfd.(i) <- true) coupled;
    let exact =
      Array.of_list
        (List.filter (fun i -> not on_rfd.(i)) (List.init n Fun.id))
    in
    let layout =
      Printf.sprintf "coupled %d/%d %s" (Array.length coupled) n
        (Digest.to_hex
           (Digest.string
              (String.concat " "
                 (Array.to_list (Array.map string_of_int coupled)))))
    in
    { sampled; coupled; exact;
      exact_beta = Array.map (fun i -> Prior.beta_params (folded i)) exact;
      clean; layout }
  end

let full_model config data =
  Model.create ~prior:config.prior ~node_priors:config.node_priors
    ~false_negative_rate:config.false_negative_rate data

let split config data = split_of ~full:(full_model config data) config data

(* Beta draws in the open unit interval: a draw that rounds to 0 or 1 is
   redrawn, which leaves the distribution on (0, 1) unchanged. *)
let rec open_beta rng ~a ~b =
  let x = Dist.beta rng ~a ~b in
  if x > 0.0 && x < 1.0 then x else open_beta rng ~a ~b

(* The exact set's draws for one full-dimension row, i.i.d. off [rng] in
   ascending node order. *)
let fill_exact s rng data base =
  Array.iteri
    (fun e i ->
      let a, b = s.exact_beta.(e) in
      data.(base + i) <- open_beta rng ~a ~b)
    s.exact

(* How a sampler's coupled-set draws become full-dimension rows: scattered
   to their dataset nodes, the exact set filled row by row from a generator
   restarted at [block] on every call, so every run of a chain (a fresh
   run, a resume, a cold rerun after an unusable snapshot) draws the same
   block.  [None] for the identity split, whose sampler already draws
   every node. *)
let embedding s ~dim ~block () =
  if s.layout = "" then None
  else
    Some
      { Chain.width = dim; columns = s.coupled;
        fill = fill_exact s (Rng.of_state block) }

(* A chain of exact draws only, for a split with no coupled set. *)
let exact_chain s ~dim ~n_samples ~block =
  let rng = Rng.of_state block in
  let flat = Array.make (n_samples * dim) 0.0 in
  for k = 0 to n_samples - 1 do
    fill_exact s rng flat (k * dim)
  done;
  Chain.of_flat ~dim flat

let run ~rng ?(config = default_config) data =
  if config.n_chains < 1 then
    invalid_arg "Infer.run: n_chains must be positive";
  if config.jobs < 1 then invalid_arg "Infer.run: jobs must be positive";
  let model = full_model config data in
  let s = split_of ~full:model config data in
  let dim = Tomography.n_nodes data in
  let target = Option.map Model.target s.sampled in
  let init = Option.map (fun p -> Array.map (fun i -> p.(i)) s.coupled) config.init in
  (* The models and targets are immutable and shared read-only across
     domains; all mutable sampler state (including the likelihood cache) is
     created inside each sampler call. *)
  let mh embed target rng resume control =
    Metropolis.run_single_site ~rng ?resume ~control ?init
      ?embed:(embed ()) ~n_samples:config.n_samples ~burn_in:config.burn_in
      target
  in
  let hmc embed target rng resume control =
    Hmc.run ~rng ~leapfrog_steps:config.leapfrog_steps ?resume ~control ?init
      ?embed:(embed ()) ~n_samples:config.n_samples ~burn_in:config.burn_in
      target
  in
  let sampler_specs =
    [ ( "MH",
        fun embed target ->
          adapt (mh embed target)
            ~wrap:(fun s -> Sampler_state.Mh s)
            ~unwrap:(function Sampler_state.Mh s -> Some s | _ -> None) );
      ( "HMC",
        fun embed target ->
          adapt (hmc embed target)
            ~wrap:(fun s -> Sampler_state.Hmc s)
            ~unwrap:(function Sampler_state.Hmc s -> Some s | _ -> None) ) ]
  in
  let specs =
    List.concat_map
      (fun (name, sample) ->
        List.init config.n_chains (fun k -> (name, k, sample)))
      sampler_specs
  in
  (* All task generators are split off the caller's stream before anything
     runs: execution order cannot perturb them.  The exact set's draw blocks
     take one more generator per task, split only when there is an exact
     set, so the identity split consumes what it always did. *)
  let n_tasks = List.length specs in
  let task_rngs = Rng.split_n rng n_tasks in
  let block_rngs =
    if s.exact = [||] then task_rngs else Rng.split_n rng n_tasks
  in
  let tasks =
    List.mapi
      (fun idx (name, chain_index, sample) ->
        fun () ->
          Tel.Span.with_ config.telemetry
            ~name:(Printf.sprintf "infer.%s.chain%d" name chain_index)
            (fun () ->
              let block = Rng.state block_rngs.(idx) in
              let outcome =
                match target with
                | None ->
                    (* Every node is exact: each draw is independent and
                       accepted. *)
                    ( Some
                        { name; chain_index;
                          chain =
                            exact_chain s ~dim ~n_samples:config.n_samples
                              ~block;
                          acceptance = 1.0 },
                      [],
                      None )
                | Some target ->
                    run_chain ~config ~layout:s.layout
                      ~rng:task_rngs.(idx) ~name ~chain_index
                      (sample (embedding s ~dim ~block) target)
              in
              if Tel.is_enabled config.telemetry then
                flush_chain_telemetry config.telemetry config
                  ~dim:(Array.length s.coupled) ~name ~chain_index outcome;
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

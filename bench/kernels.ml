(* Bechamel micro-benchmarks of the computational kernels.

   Beyond printing to stdout, the section writes BENCH_kernels.json
   (name, ns/run, minor words/run per kernel) so the performance trajectory
   is tracked across PRs by CI artifacts instead of eyeballed.

   The inference hot path is measured in pairs: the incremental-cache MH
   sweep against the stateless-delta one, and multi-domain inference
   against single-domain, so the speedups are visible in the same run. *)

open Because_bgp
module Sc = Because_scenario
module Ctx = Bench_context
module Rng = Because_stats.Rng

let make_dataset () =
  (* A representative tomography instance: ~120 nodes, ~600 paths. *)
  let rng = Rng.create 2024 in
  let observations =
    List.init 600 (fun _ ->
        let len = 3 + Rng.int rng 4 in
        let nodes =
          List.sort_uniq Int.compare
            (List.init len (fun _ -> 1 + Rng.int rng 120))
        in
        (List.map Asn.of_int nodes, Rng.float rng < 0.18))
  in
  Because.Tomography.of_observations observations

type row = { name : string; ns_per_run : float; minor_words : float option }

let tests ~scratch =
  let data = make_dataset () in
  let model = Because.Model.create data in
  let target = Because.Model.target model in
  let target_uncached = Because.Model.target ~cached:false model in
  let n = Because.Tomography.n_nodes data in
  let p = Array.init n (fun i -> 0.1 +. (0.8 *. float_of_int (i mod 7) /. 7.0)) in
  let rng = Rng.create 99 in
  let likelihood =
    Bechamel.Test.make ~name:"log-likelihood"
      (Bechamel.Staged.stage (fun () ->
           ignore (Because.Model.log_likelihood model p)))
  in
  let gradient =
    Bechamel.Test.make ~name:"gradient"
      (Bechamel.Staged.stage (fun () ->
           ignore (Because.Model.grad_log_posterior model p)))
  in
  let delta_uncached =
    Bechamel.Test.make ~name:"single-site delta (uncached)"
      (Bechamel.Staged.stage (fun () ->
           ignore (Because.Model.delta_log_posterior model p 17 0.42)))
  in
  let delta_cached =
    (* One cache reused across runs; deltas without commits leave it at p. *)
    let cache = Because.Model.make_cache model p in
    Bechamel.Test.make ~name:"single-site delta (cached)"
      (Bechamel.Staged.stage (fun () ->
           ignore (cache.Because_mcmc.Target.cached_delta 17 0.42)))
  in
  let mh_sweep tgt name =
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Because_mcmc.Metropolis.run_single_site ~rng:(Rng.copy rng)
                ~n_samples:50 ~burn_in:10 tgt)))
  in
  let mh_cached = mh_sweep target "MH run 50 draws (cached)" in
  let mh_uncached = mh_sweep target_uncached "MH run 50 draws (uncached)" in
  let config ?(telemetry = Because_telemetry.Registry.disabled) ?checkpoint
      jobs =
    { Because.Infer.default_config with
      n_samples = 100; burn_in = 100; n_chains = 2; jobs; telemetry;
      checkpoint }
  in
  let infer_jobs ?telemetry jobs name =
    let config = config ?telemetry jobs in
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () ->
           ignore (Because.Infer.run ~rng:(Rng.create 7) ~config data)))
  in
  (* The jobs sweep shares one task shape (2 samplers × 2 chains = 4 tasks)
     so the rows differ only in scheduling width; results are bit-identical
     across the sweep by the pre-split RNG discipline.  CI fails the build
     if the jobs=4 row regresses below the jobs=1 row. *)
  let infer_seq = infer_jobs 1 "inference 4 chains (jobs=1)" in
  let infer_j2 = infer_jobs 2 "inference 4 chains (jobs=2)" in
  let infer_par = infer_jobs 4 "inference 4 chains (jobs=4)" in
  let infer_j8 = infer_jobs 8 "inference 4 chains (jobs=8)" in
  (* Paired with [infer_seq]: the same run with live checkpoint hooks at the
     default cadence (wall-clock driven, so a bench-length run only pays the
     per-sweep cadence test plus the end-of-chain save).  The acceptance bar
     for the recovery subsystem is < 2% overhead on this pair.  Every run
     takes a fresh store: one that already holds finished chains would
     resume them and measure nothing.  Bechamel calls [allocate] once per
     run before it times a sample, so store creation stays outside the
     timed region; it hands every run of a sample the same resource slot,
     though, so the stores wait in a queue and each run takes the next. *)
  let infer_ckpt =
    let fresh = Queue.create () and made = ref 0 in
    Bechamel.Test.make_with_resource
      ~name:"inference 4 chains (jobs=1, checkpoint)" Bechamel.Test.multiple
      ~allocate:(fun () ->
        incr made;
        let dir = Filename.concat scratch (string_of_int !made) in
        let recovery = Sc.Recovery.create ~dir () in
        Sc.Recovery.attach recovery ~fingerprint:"bench-kernels";
        Queue.push recovery fresh)
      ~free:ignore
      (Bechamel.Staged.stage (fun () ->
           let hooks =
             Sc.Recovery.chain_hooks (Queue.pop fresh) ~namespace:"bench."
           in
           let config = config ~checkpoint:hooks 1 in
           ignore (Because.Infer.run ~rng:(Rng.create 7) ~config data)))
  in
  (* One live registry reused across iterations: spans overwrite their ring
     and counters just keep summing, so steady-state record cost — not
     registry construction — is what gets measured. *)
  let infer_tel =
    infer_jobs
      ~telemetry:(Because_telemetry.Registry.create ())
      1 "inference 4 chains (jobs=1, telemetry)"
  in
  let hmc_traj =
    Bechamel.Test.make ~name:"HMC run (10 draws)"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Because_mcmc.Hmc.run ~rng:(Rng.copy rng) ~n_samples:10
                ~burn_in:5 ~leapfrog_steps:10 target)))
  in
  let rfd_engine =
    Bechamel.Test.make ~name:"RFD record+query"
      (Bechamel.Staged.stage (fun () ->
           let s = Rfd.create Rfd_params.cisco in
           for i = 0 to 19 do
             Rfd.record s ~now:(float_of_int i *. 60.0) Rfd.Withdrawal
           done;
           ignore (Rfd.suppressed s ~now:1300.0)))
  in
  let heap =
    Bechamel.Test.make ~name:"event heap 1k push/pop"
      (Bechamel.Staged.stage (fun () ->
           let h = Because_sim.Heap.create () in
           let local = Rng.create 7 in
           for _ = 1 to 1000 do
             Because_sim.Heap.push h ~time:(Rng.float local) ()
           done;
           while not (Because_sim.Heap.is_empty h) do
             ignore (Because_sim.Heap.remove_min h)
           done))
  in
  let topology =
    Bechamel.Test.make ~name:"topology generation (100 AS)"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Because_topology.Generate.generate (Rng.create 3)
                {
                  Because_topology.Generate.default_params with
                  n_transit = 20;
                  n_stub = 72;
                })))
  in
  [ likelihood; gradient; delta_uncached; delta_cached; mh_uncached;
    mh_cached; infer_seq; infer_j2; infer_par; infer_j8; infer_tel;
    infer_ckpt; hmc_traj; rfd_engine; heap; topology ]

let estimate analysed =
  (* One test per Benchmark.all call, so the table has exactly one entry. *)
  Hashtbl.fold
    (fun _ result acc ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some (x :: _) -> Some x
      | Some [] | None -> acc)
    analysed None

let measure cfg test =
  let open Bechamel in
  let clock = Toolkit.Instance.monotonic_clock in
  let alloc = Toolkit.Instance.minor_allocated in
  let results = Benchmark.all cfg [ clock; alloc ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let time = estimate (Analyze.all ols clock results) in
  let words = estimate (Analyze.all ols alloc results) in
  (time, words)

let row_json row =
  Printf.sprintf "{ \"name\": \"%s\", \"ns_per_run\": %.3f%s }"
    (Because_telemetry.Manifest.json_escape row.name) row.ns_per_run
    (match row.minor_words with
    | Some w -> Printf.sprintf ", \"minor_words_per_run\": %.1f" w
    | None -> "")

let speedup rows ~slow ~fast ~label =
  match
    ( List.find_opt (fun r -> r.name = slow) rows,
      List.find_opt (fun r -> r.name = fast) rows )
  with
  | Some s, Some f when f.ns_per_run > 0.0 ->
      Printf.printf "%-32s %11.2fx\n" label (s.ns_per_run /. f.ns_per_run)
  | _ -> ()

let overhead rows ~off ~on ~label =
  match
    ( List.find_opt (fun r -> r.name = off) rows,
      List.find_opt (fun r -> r.name = on) rows )
  with
  | Some o, Some n when o.ns_per_run > 0.0 ->
      Printf.printf "%-32s %+10.2f%%\n" label
        (((n.ns_per_run /. o.ns_per_run) -. 1.0) *. 100.0)
  | _ -> ()

let run () =
  Ctx.section "Kernel micro-benchmarks (Bechamel)";
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000
      ~quota:(Bechamel.Time.second 0.5) ~kde:None ()
  in
  (* Checkpoint stores live here for the section's duration. *)
  let scratch = Filename.temp_file "because-bench-ckpt" ".dir" in
  Sys.remove scratch;
  Sys.mkdir scratch 0o755;
  let rows =
    Fun.protect ~finally:(fun () -> Because_recover.Io.rm_rf scratch) @@ fun () ->
    List.filter_map
      (fun test ->
        let name =
          match Bechamel.Test.elements test with
          | [ e ] -> Bechamel.Test.Elt.name e
          | _ -> "?"
        in
        match measure cfg test with
        | Some ns, words ->
            (if ns > 1_000_000.0 then
               Printf.printf "%-32s %12.3f ms/run" name (ns /. 1e6)
             else if ns > 1_000.0 then
               Printf.printf "%-32s %12.3f µs/run" name (ns /. 1e3)
             else Printf.printf "%-32s %12.1f ns/run" name ns);
            (match words with
            | Some w -> Printf.printf " %14.0f w/run\n" w
            | None -> print_newline ());
            Some { name; ns_per_run = ns; minor_words = words }
        | None, _ ->
            Printf.printf "%-32s (no estimate)\n" name;
            None)
      (tests ~scratch)
  in
  speedup rows ~slow:"MH run 50 draws (uncached)" ~fast:"MH run 50 draws (cached)"
    ~label:"MH sweep cache speedup";
  speedup rows ~slow:"single-site delta (uncached)"
    ~fast:"single-site delta (cached)" ~label:"single-site delta speedup";
  speedup rows ~slow:"inference 4 chains (jobs=1)"
    ~fast:"inference 4 chains (jobs=2)" ~label:"inference jobs=2 speedup";
  speedup rows ~slow:"inference 4 chains (jobs=1)"
    ~fast:"inference 4 chains (jobs=4)" ~label:"inference jobs=4 speedup";
  speedup rows ~slow:"inference 4 chains (jobs=1)"
    ~fast:"inference 4 chains (jobs=8)" ~label:"inference jobs=8 speedup";
  overhead rows ~off:"inference 4 chains (jobs=1)"
    ~on:"inference 4 chains (jobs=1, telemetry)"
    ~label:"inference telemetry overhead";
  overhead rows ~off:"inference 4 chains (jobs=1)"
    ~on:"inference 4 chains (jobs=1, checkpoint)"
    ~label:"inference checkpoint overhead";
  Ctx.write_json ~schema:"because-bench-kernels/1" "BENCH_kernels.json"
    (List.map row_json rows);
  Printf.printf "wrote BENCH_kernels.json (%d kernels)\n" (List.length rows)

(* because — command-line interface to the BeCAUSe framework.

   Subcommands:
     topology    generate an Internet-like AS topology and print statistics
     rfd-trace   trace the RFD penalty state machine for a flapping prefix
     campaign    run a full measurement campaign on a simulated world
     sweep       run campaigns across all six update intervals (Fig. 12)
     infer       run BeCAUSe on labeled paths from a file
     rov         benchmark BeCAUSe on a simulated ROV dataset
     serve       always-on service: schedule many campaigns, drain on signal *)

open Because_bgp
open Cmdliner
module Sc = Because_scenario
module Rng = Because_stats.Rng
module Supervise = Because_recover.Supervise

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* Counts of workers, shards, chains, cycles and draws: a value below 1 is a
   usage error (exit 124, naming the flag), caught before any work starts. *)
let positive_int =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < 1 ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let jobs_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the MCMC samplers.  Chains are seeded from \
           pre-split RNG streams, so the output is bit-for-bit identical \
           for any value — only wall-clock time changes.")

let sim_jobs_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "sim-jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the BGP simulation itself: prefixes are \
           partitioned into N shards simulated in parallel.  1 (the \
           default) preserves the sequential event stream bit-for-bit; on \
           a fault-free campaign every value yields the identical outcome.")

let sim_shards_arg =
  Arg.(
    value & opt (some positive_int) None
    & info [ "sim-shards" ] ~docv:"N"
        ~doc:
          "Simulation shard count, decoupled from --sim-jobs (default: one \
           shard per job).  More shards than jobs queue on the domain pool \
           — at most --sim-jobs shard networks are live at once, so peak \
           memory is bounded by the seat count while per-shard state \
           shrinks.  Fault-free outcomes are shard-invariant.")

let chains_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "chains" ] ~docv:"N"
        ~doc:
          "Independent chains per sampler; 2+ enables the cross-chain \
           R-hat convergence diagnostic.")

let telemetry_arg =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:
          "Collect run telemetry and print the summary table (phase \
           wall-times, simulator and sampler counters, per-chain \
           acceptance and R-hat gauges) plus the run manifest.  Telemetry \
           never touches the RNG streams, so results are bit-for-bit \
           identical with or without it.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the final metrics snapshot to FILE: Prometheus text \
           exposition format when FILE ends in .prom, JSON (with the run \
           manifest) otherwise.  Implies telemetry collection.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write recorded spans to FILE as Chrome trace_event JSON — load \
           it in chrome://tracing or Perfetto; each simulation shard \
           domain gets its own lane.  Implies telemetry collection.")

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Write durable, CRC-checksummed progress snapshots (finished \
           simulation shards, per-chain sampler state, the telemetry \
           snapshot) under DIR.  A later run with $(b,--resume) picks up \
           from them and produces the bit-for-bit identical outcome.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the snapshots in $(b,--checkpoint-dir) instead of \
           clearing them: completed simulation shards are skipped and \
           partial chains continue mid-stream.  Snapshots from a different \
           campaign configuration are detected by fingerprint, quarantined \
           and ignored.")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every-sweeps" ] ~docv:"N"
        ~doc:
          "Snapshot each chain every N completed sweeps (in addition to \
           the default 30-second wall-clock cadence and the always-taken \
           final-sweep snapshot).")

let chain_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "chain-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per sampler chain.  A chain that exceeds it \
           is terminated cooperatively; the campaign completes with a \
           degraded (heuristic-only) localization and exit code 3.")

let sweep_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sweep-budget" ] ~docv:"N"
        ~doc:
          "Sweep-count budget per sampler chain; enforced exactly, so \
           budget-limited runs are reproducible.  Exceeding it degrades \
           the campaign (exit code 3) rather than failing it.")

(* The registry is created iff some telemetry output was requested; every
   instrumented layer otherwise sees the shared disabled registry and pays
   one predictable branch per record site. *)
let registry_of ~telemetry ~metrics_out ~trace_out =
  if telemetry || metrics_out <> None || trace_out <> None then
    Because_telemetry.Registry.create ()
  else Because_telemetry.Registry.disabled

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents;
      Out_channel.output_char oc '\n')

let emit_telemetry ~seed ~manifest_params ~telemetry ~metrics_out ~trace_out
    reg =
  if Because_telemetry.Registry.is_enabled reg then begin
    let module Tel = Because_telemetry in
    let snap = Tel.Registry.snapshot reg in
    let manifest = Tel.Manifest.make ~seed ~params:manifest_params () in
    Option.iter
      (fun path ->
        let body =
          if Filename.check_suffix path ".prom" then
            Tel.Export.to_prometheus snap
          else Tel.Export.to_json ~manifest snap
        in
        write_file path body;
        Printf.printf "metrics written to %s\n" path)
      metrics_out;
    Option.iter
      (fun path ->
        write_file path (Tel.Export.to_chrome_trace snap);
        Printf.printf "trace written to %s\n" path)
      trace_out;
    if telemetry then begin
      Format.printf "%a@." Tel.Snapshot.pp_summary snap;
      Format.printf "%a@." Tel.Manifest.pp manifest
    end
  end

let world_size_args =
  let transit =
    Arg.(value & opt int 80 & info [ "transit" ] ~doc:"Transit AS count.")
  in
  let stub =
    Arg.(value & opt int 360 & info [ "stub" ] ~doc:"Stub AS count.")
  in
  let vantage =
    Arg.(value & opt int 60 & info [ "vantage-hosts" ] ~doc:"Vantage hosts.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"FACTOR"
          ~doc:
            "Scale factor applied to the transit, stub and vantage-host \
             counts (the Tier-1 clique stays fixed) — e.g. --scale 22 grows \
             the default world to roughly 10k ASs.")
  in
  Term.(
    const (fun transit stub vantage scale ->
        if Float.equal scale 1.0 then (transit, stub, vantage)
        else begin
          if (not (Float.is_finite scale)) || scale <= 0.0 then
            failwith "--scale must be positive";
          let s n =
            max 1 (int_of_float (Float.round (float_of_int n *. scale)))
          in
          (s transit, s stub, s vantage)
        end)
    $ transit $ stub $ vantage $ scale)

let world_of ~seed (transit, stub, vantage_hosts) =
  Sc.World.of_sizes ~seed ~transit ~stub ~vantage_hosts

(* ------------------------------------------------------------------ *)
(* topology                                                             *)

let topology_cmd =
  let run seed (transit, stub, _) =
    let rng = Rng.create seed in
    let graph =
      Because_topology.Generate.generate rng
        {
          Because_topology.Generate.default_params with
          n_transit = transit;
          n_stub = stub;
        }
    in
    Printf.printf "ASes: %d, links: %d\n"
      (Because_topology.Graph.size graph)
      (Because_topology.Graph.link_count graph);
    let cones =
      List.map
        (fun a -> (a, Because_topology.Graph.customer_cone_size graph a))
        (Because_topology.Generate.transit_asns graph)
    in
    let top = List.sort (fun (_, a) (_, b) -> Int.compare b a) cones in
    print_endline "largest customer cones:";
    List.iteri
      (fun i (asn, cone) ->
        if i < 10 then
          Printf.printf "  %-8s %d customers\n" (Asn.to_string asn) cone)
      top
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Generate an AS topology and print statistics.")
    Term.(const run $ seed_arg $ world_size_args)

(* ------------------------------------------------------------------ *)
(* rfd-trace                                                            *)

let rfd_trace_cmd =
  let vendor_arg =
    Arg.(
      value
      & opt
          (enum [ ("cisco", `Cisco); ("juniper", `Juniper); ("rfc7454", `Rfc) ])
          `Cisco
      & info [ "vendor" ] ~doc:"Parameter preset: cisco, juniper or rfc7454.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"MIN" ~doc:"Flap interval in minutes.")
  in
  let duration_arg =
    Arg.(
      value & opt float 40.0
      & info [ "flap-duration" ] ~docv:"MIN"
          ~doc:"How long the prefix flaps.")
  in
  let run vendor interval duration =
    let params =
      match vendor with
      | `Cisco -> Rfd_params.cisco
      | `Juniper -> Rfd_params.juniper
      | `Rfc -> Rfd_params.rfc7454
    in
    Format.printf "parameters: %a@." Rfd_params.pp params;
    let state = Rfd.create params in
    let step = interval *. 60.0 in
    let next_event = ref 0.0 and withdraw = ref true in
    for minute = 0 to int_of_float (duration +. 90.0) do
      let now = float_of_int minute *. 60.0 in
      while !next_event <= now && !next_event < duration *. 60.0 do
        Rfd.record state ~now:!next_event
          (if !withdraw then Rfd.Withdrawal else Rfd.Readvertisement);
        withdraw := not !withdraw;
        next_event := !next_event +. step
      done;
      if minute mod 2 = 0 then
        Printf.printf "t=%3d min penalty=%7.0f %s\n" minute
          (Rfd.penalty state ~now)
          (if Rfd.suppressed state ~now then "SUPPRESSED" else "")
    done
  in
  Cmd.v
    (Cmd.info "rfd-trace" ~doc:"Trace the RFD penalty for a flapping prefix.")
    Term.(const run $ vendor_arg $ interval_arg $ duration_arg)

(* ------------------------------------------------------------------ *)
(* campaign                                                             *)

let interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "interval" ] ~docv:"MIN"
        ~doc:"Beacon update interval (minutes).")

let cycles_arg =
  Arg.(
    value & opt positive_int 4 & info [ "cycles" ] ~doc:"Burst-Break pairs.")

let faults_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("none", None);
             ("mild", Some Because_faults.Plan.mild);
             ("realistic", Some Because_faults.Plan.realistic);
             ("severe", Some Because_faults.Plan.severe) ])
        None
    & info [ "faults" ] ~docv:"SEVERITY"
        ~doc:
          "Inject a seeded fault plan: session resets, link flaps, Beacon \
           site outages, collector outages and lossy sessions.  One of \
           none, mild, realistic or severe.")

let print_fault_summary outcome =
  let module Plan = Because_faults.Plan in
  let plan = outcome.Sc.Campaign.params.Sc.Campaign.faults in
  if not (Plan.is_empty plan) then begin
    Printf.printf
      "faults: %d injected (%d session resets, %d link flaps, %d site \
       outages, %d collector outages, %d impaired links), %d fault events \
       realized\n"
      (Plan.size plan)
      (Plan.count `Session_reset plan)
      (Plan.count `Link_flap plan)
      (Plan.count `Site_outage plan)
      (Plan.count `Collector_outage plan)
      (Plan.count `Session_impairment plan)
      (List.length outcome.Sc.Campaign.fault_log);
    (match outcome.Sc.Campaign.insufficient with
    | [] -> ()
    | demoted ->
        Printf.printf "insufficient data (demoted to C3):";
        List.iter (fun a -> Printf.printf " %s" (Asn.to_string a)) demoted;
        print_newline ());
    List.iter (Printf.printf "warning: %s\n") outcome.Sc.Campaign.warnings
  end

let print_campaign_summary world outcome =
  let rfd_paths =
    List.filter
      (fun (lp : Because_labeling.Label.labeled_path) ->
        lp.Because_labeling.Label.rfd)
      outcome.Sc.Campaign.labeled
  in
  Printf.printf
    "labeled paths: %d (%d RFD), measured ASs: %d, deliveries: %d\n"
    (List.length outcome.Sc.Campaign.labeled)
    (List.length rfd_paths)
    (Asn.Set.cardinal (Sc.Campaign.universe outcome))
    outcome.Sc.Campaign.deliveries;
  Printf.printf "events processed: %d" outcome.Sc.Campaign.events;
  let shard_events = outcome.Sc.Campaign.shard_events in
  if Array.length shard_events > 1 then begin
    Printf.printf " over %d shards:" (Array.length shard_events);
    Array.iter (Printf.printf " %d") shard_events
  end;
  print_newline ();
  let flagged = Sc.Campaign.because_damping outcome in
  Printf.printf "BeCAUSe flags %d damping ASs:" (Asn.Set.cardinal flagged);
  Asn.Set.iter (fun a -> Printf.printf " %s" (Asn.to_string a)) flagged;
  print_newline ();
  let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment world) in
  let m =
    Because.Evaluate.of_sets ~predicted:flagged ~truth
      ~universe:(Sc.Campaign.universe outcome)
  in
  Format.printf "against planted deployment: %a@." Because.Evaluate.pp m

(* First SIGTERM/SIGINT: raise the process-wide drain flag — every
   supervised chain checkpoints at its next sweep boundary and the run
   exits 5, resumable with --resume.  Second signal: give up waiting and
   exit 6.  The handler body is async-safe: one atomic fetch-and-add plus
   one atomic store. *)
let install_drain_handlers () =
  let seen = Atomic.make 0 in
  let handle _ =
    if Atomic.fetch_and_add seen 1 = 0 then Supervise.request_drain ()
    else Stdlib.exit 6
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle handle))
    [ Sys.sigterm; Sys.sigint ]

let campaign_cmd =
  let run seed sizes interval cycles severity jobs chains sim_jobs sim_shards
      telemetry metrics_out trace_out checkpoint_dir resume checkpoint_every
      chain_deadline sweep_budget =
    if resume && checkpoint_dir = None then
      failwith "--resume requires --checkpoint-dir";
    install_drain_handlers ();
    let recovery =
      Option.map
        (fun dir ->
          Sc.Recovery.create ~dir ~resume ?every_sweeps:checkpoint_every ())
        checkpoint_dir
    in
    let world = world_of ~seed sizes in
    let reg = registry_of ~telemetry ~metrics_out ~trace_out in
    let base =
      Sc.Campaign.with_jobs ~n_chains:chains ~sim_jobs
        { (Sc.Campaign.default_params ~update_interval:(interval *. 60.0))
          with Sc.Campaign.cycles; telemetry = reg }
        jobs
    in
    let base =
      { base with
        Sc.Campaign.sim_shards;
        infer_config =
          { base.Sc.Campaign.infer_config with
            Because.Infer.supervise =
              { Supervise.deadline_s = chain_deadline;
                max_sweeps = sweep_budget } } }
    in
    let params =
      match severity with
      | None -> base
      | Some severity ->
          let plan = Sc.Campaign.draw_faults world base severity in
          Format.printf "fault plan:@.%a@." Because_faults.Plan.pp plan;
          { base with Sc.Campaign.faults = plan; min_path_support = 2 }
    in
    let outcome =
      match Sc.Campaign.run ?recovery world params with
      | outcome -> outcome
      | exception Supervise.Drained ->
          (* Exit-code 5: interrupted by signal, final checkpoint written
             (when --checkpoint-dir is set); rerun with --resume to finish
             bit-for-bit. *)
          Printf.eprintf
            "because: drained on signal; %s\n%!"
            (match checkpoint_dir with
            | Some dir ->
                Printf.sprintf
                  "state checkpointed under %s — rerun with --resume" dir
            | None -> "no --checkpoint-dir, progress discarded");
          Stdlib.exit 5
    in
    (* Recovery bookkeeping goes to stderr: stdout must be byte-for-byte
       identical between a clean run and an interrupted-then-resumed one
       (the CI resume-smoke job diffs them). *)
    Option.iter
      (fun r ->
        List.iter (Printf.eprintf "recovery: %s\n") (Sc.Recovery.warnings r);
        Printf.eprintf
          "recovery: %d snapshots restored, %d fallbacks, %d saved under %s\n%!"
          (Sc.Recovery.restores r) (Sc.Recovery.fallbacks r)
          (Sc.Recovery.saves r) (Sc.Recovery.dir r))
      recovery;
    print_fault_summary outcome;
    print_campaign_summary world outcome;
    List.iter
      (Printf.printf "degraded: %s\n")
      (Supervise.status_reasons outcome.Sc.Campaign.status);
    Printf.printf "status: %s\n"
      (Supervise.status_label outcome.Sc.Campaign.status);
    let transit, stub, vantage = sizes in
    emit_telemetry ~seed
      ~manifest_params:
        [ ("command", "campaign");
          ("interval_min", string_of_float interval);
          ("cycles", string_of_int cycles);
          ("transit", string_of_int transit);
          ("stub", string_of_int stub);
          ("vantage_hosts", string_of_int vantage);
          ("jobs", string_of_int jobs);
          ("chains", string_of_int chains);
          ("sim_jobs", string_of_int sim_jobs);
          ( "sim_shards",
            match sim_shards with
            | None -> "auto"
            | Some n -> string_of_int n );
          ( "faults",
            match severity with
            | None -> "none"
            | Some _ -> "drawn" ) ]
      ~telemetry ~metrics_out ~trace_out reg;
    (* Exit-code contract: 0 healthy, 3 degraded, 4 insufficient (hard
       failures exit 1 via the top-level handler). *)
    let code = Supervise.exit_code outcome.Sc.Campaign.status in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run one measurement campaign end to end on a simulated world.")
    Term.(
      const run $ seed_arg $ world_size_args $ interval_arg $ cycles_arg
      $ faults_arg $ jobs_arg $ chains_arg $ sim_jobs_arg $ sim_shards_arg
      $ telemetry_arg $ metrics_out_arg $ trace_out_arg $ checkpoint_dir_arg
      $ resume_arg $ checkpoint_every_arg $ chain_deadline_arg
      $ sweep_budget_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                                *)

let sweep_cmd =
  let run seed sizes cycles jobs sim_jobs =
    let world = world_of ~seed sizes in
    let outcomes =
      List.map
        (fun minutes ->
          Printf.printf "[interval %.0f min]\n%!" minutes;
          Sc.Campaign.run world
            (Sc.Campaign.with_jobs ~sim_jobs
               { (Sc.Campaign.default_params
                    ~update_interval:(minutes *. 60.0))
                 with Sc.Campaign.cycles }
               jobs))
        [ 1.0; 2.0; 3.0; 5.0; 10.0; 15.0 ]
    in
    let shares = Sc.Report.interval_shares outcomes in
    Printf.printf "%-10s %12s %14s %8s\n" "interval" "consistent"
      "+inconsistent" "share";
    List.iter
      (fun (s : Sc.Report.interval_share) ->
        Printf.printf "%7.0fmin %12d %14d %7.1f%%\n"
          (s.Sc.Report.interval /. 60.0)
          s.Sc.Report.consistent s.Sc.Report.with_promotions
          (100.0
          *. float_of_int s.Sc.Report.with_promotions
          /. float_of_int (max 1 s.Sc.Report.measured)))
      shares
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run campaigns at all six update intervals (Fig. 12).")
    Term.(
      const run $ seed_arg $ world_size_args $ cycles_arg $ jobs_arg
      $ sim_jobs_arg)

(* ------------------------------------------------------------------ *)
(* infer                                                                *)

let infer_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Labeled paths, one per line: 'rfd|clean ASN ASN ...' with the \
             vantage-point side first; blank lines and '#' comments are \
             ignored (the streaming spool grammar).")
  in
  let samples_arg =
    Arg.(
      value & opt positive_int 1000
      & info [ "samples" ] ~doc:"Posterior draws per sampler.")
  in
  let run seed file samples jobs chains =
    let observations =
      match Because_service.Stream.parse_observations file with
      | Ok (_ :: _ as observations) -> observations
      | Ok [] ->
          Printf.eprintf "because: %s: no observations\n" file;
          exit 1
      | Error e ->
          Printf.eprintf "because: %s: %s\n" file e;
          exit 1
    in
    let config =
      { Because.Infer.default_config with
        n_samples = samples; jobs; n_chains = chains }
    in
    let result, p =
      Because.Pinpoint.localize ~rng:(Rng.create seed) ~config
        ~min_path_support:1 observations
    in
    let data = Because.Infer.dataset result in
    Printf.printf "%d observations (%d RFD) on %d distinct paths over %d ASs\n"
      (Because.Tomography.n_observations data)
      (Because.Tomography.rfd_path_count data)
      (Because.Tomography.n_paths data)
      (Because.Tomography.n_nodes data);
    if result.Because.Infer.runs <> [] then
      List.iter
        (fun (name, r) -> Printf.printf "R-hat %s: %.3f\n" name r)
        (Because.Infer.r_hat result);
    Printf.printf "%-10s %8s %8s %8s  %s\n" "AS" "mean" "hdpi-lo" "hdpi-hi"
      "category";
    Array.iter
      (fun (e : Because_service.Store.estimate) ->
        Printf.printf "%-10s %8.3f %8.3f %8.3f  %d%s\n"
          (Asn.to_string e.asn) e.mean e.lo e.hi e.category
          (if e.damping then "  << RFD" else ""))
      (Because_service.Store.estimates_of_result ~posterior:p.posterior result
         ~categories:p.categories)
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Run BeCAUSe (MH + HMC) on externally labeled paths and print the \
          per-AS marginals and categories.")
    Term.(
      const run $ seed_arg $ file_arg $ samples_arg $ jobs_arg $ chains_arg)

(* ------------------------------------------------------------------ *)
(* export-dump / label-dump: the file-based pipeline                    *)

let export_dump_cmd =
  let out_arg =
    Arg.(
      value & opt string "campaign"
      & info [ "out" ] ~docv:"BASE"
          ~doc:"Output base name: writes BASE.mrt and BASE.windows.")
  in
  let run seed sizes interval cycles out =
    let world = world_of ~seed sizes in
    let params =
      { (Sc.Campaign.default_params ~update_interval:(interval *. 60.0)) with
        Sc.Campaign.cycles; run_inference = false }
    in
    let outcome = Sc.Campaign.run world params in
    Because_collector.Mrt.write_file (out ^ ".mrt")
      outcome.Sc.Campaign.records;
    Because_labeling.Label.write_windows (out ^ ".windows")
      (List.map
         (fun prefix -> (prefix, Sc.Campaign.windows_of outcome prefix))
         (Prefix.Set.elements outcome.Sc.Campaign.oscillating));
    Printf.printf "wrote %s.mrt (%d records) and %s.windows\n" out
      (List.length outcome.Sc.Campaign.records)
      out
  in
  Cmd.v
    (Cmd.info "export-dump"
       ~doc:
         "Run a campaign and export the collector dumps as MRT (BGP4MP_ET) \
          plus a Burst-Break windows sidecar.")
    Term.(
      const run $ seed_arg $ world_size_args $ interval_arg $ cycles_arg
      $ out_arg)

let label_dump_cmd =
  let base_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASE" ~doc:"Base name written by export-dump.")
  in
  let run base =
    let read file reader =
      match reader file with
      | Ok v -> v
      | Error e ->
          Printf.eprintf "because: %s: %s\n" file e;
          exit 1
    in
    let records = read (base ^ ".mrt") Because_collector.Mrt.read_file in
    let windows_of =
      read (base ^ ".windows") Because_labeling.Label.read_windows
    in
    let labeled =
      Because_labeling.Label.label_all ~min_r_delta:480.0 ~records
        ~windows_of ()
    in
    List.iter
      (fun (lp : Because_labeling.Label.labeled_path) ->
        Printf.printf "%s %s\n"
          (if lp.Because_labeling.Label.rfd then "rfd" else "clean")
          (String.concat " "
             (List.map
                (fun a -> string_of_int (Asn.to_int a))
                lp.Because_labeling.Label.path)))
      labeled
  in
  Cmd.v
    (Cmd.info "label-dump"
       ~doc:
         "Label the paths of an exported MRT dump and print them in the \
          format `because infer` consumes.")
    Term.(const run $ base_arg)

(* ------------------------------------------------------------------ *)
(* rov                                                                  *)

let rov_cmd =
  let run seed sizes =
    let world = world_of ~seed sizes in
    let params = Sc.Campaign.default_params ~update_interval:60.0 in
    let params =
      { params with Sc.Campaign.cycles = 2; run_inference = false }
    in
    let outcome = Sc.Campaign.run world params in
    let b =
      Sc.Report.rov_benchmark ~rng:(Sc.World.fresh_rng world ~salt:17) outcome
    in
    Printf.printf "positive share: %.0f%%, hidden ROV ASs: %d\n"
      (100.0 *. b.Because_rov.Rov.positive_share)
      (Asn.Set.cardinal b.Because_rov.Rov.hidden);
    Format.printf "BeCAUSe on ROV: %a@." Because.Evaluate.pp
      b.Because_rov.Rov.metrics
  in
  Cmd.v
    (Cmd.info "rov" ~doc:"Benchmark BeCAUSe on a simulated ROV dataset (§7).")
    Term.(const run $ seed_arg $ world_size_args)

(* ------------------------------------------------------------------ *)
(* serve                                                                *)

module Service = Because_service.Service
module Sspec = Because_service.Spec

let ingest_line svc line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then ()
  else
    match Sspec.of_line line with
    | Error e -> Printf.eprintf "serve: reject: %s\n%!" e
    | Ok spec -> (
        match Service.submit svc spec with
        | Ok seq ->
            Printf.printf "serve: admitted %s (seq %d)\n%!" spec.Sspec.id seq
        | Error reason ->
            Printf.eprintf "serve: reject %s: %s\n%!" spec.Sspec.id
              (Service.reason_to_string reason))

let read_lines path = In_channel.with_open_text path In_channel.input_lines
let ingest_file svc path = List.iter (ingest_line svc) (read_lines path)

(* Spool intake: every eligible *.campaign file under DIR is one or more
   spec lines; ingested files are renamed *.campaign.done so they are
   picked up exactly once.  A plain directory is the whole submission API —
   no sockets, no extra dependencies, trivially scriptable.  Producers must
   write-then-rename into place: Spool.eligible ignores dotfiles, so a
   partial write staged as ".x.campaign" is invisible until renamed.

   Reads race producers and NFS-style hiccups, so the read and the rename
   each go through Io.retry; the lines are submitted once, between them.
   A file whose read keeps failing is skipped and stays eligible for the
   next poll.  A file whose rename keeps failing is remembered in
   [submitted] (path → the inode that was read): later polls retry only
   its rename, silently, so its specs are never submitted twice however
   long the daemon runs.  A new file renamed into place under that name
   has a new inode and is read as a new submission. *)
let scan_spool submitted svc dir =
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let inode =
        match Unix.stat path with
        | st -> st.Unix.st_ino
        | exception Unix.Unix_error _ -> -1
      in
      let rename_only = Hashtbl.find_opt submitted path = Some inode in
      match
        if not rename_only then begin
          let lines = Because_recover.Io.retry (fun () -> read_lines path) in
          List.iter (ingest_line svc) lines;
          Hashtbl.replace submitted path inode
        end;
        Because_recover.Io.retry (fun () -> Sys.rename path (path ^ ".done"))
      with
      | () -> Hashtbl.remove submitted path
      | exception Sys_error e ->
          if not rename_only then
            Printf.eprintf "serve: spool: skipping %s: %s\n%!" f e)
    (Because_service.Spool.scan dir)

let serve_cmd =
  let state_dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Root of the service's durable state: queue snapshot, \
             per-campaign checkpoints, reports, status.json/metrics.prom.")
  in
  let spool_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Poll DIR for $(b,*.campaign) spec files (one key=value spec \
             per line); ingested files are renamed $(b,*.campaign.done).")
  in
  let spec_files_arg =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"SPEC-FILE" ~doc:"Spec files to ingest at startup.")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 16
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission bound: submissions past N queued campaigns are \
             rejected (backpressure), never buffered unboundedly.")
  in
  let service_jobs_arg =
    Arg.(
      value & opt positive_int 2
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains — campaigns run concurrently, isolated.")
  in
  let campaign_jobs_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "campaign-jobs" ] ~docv:"N"
          ~doc:
            "Inference pool size inside each campaign (outcomes are \
             bit-for-bit jobs-invariant).")
  in
  let max_attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:
            "Runs per campaign before it is declared insufficient; \
             retries restart from the last checkpoint after a sleep of \
             10 ms, doubling per attempt, at most 1 s.")
  in
  let serve_resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Warm-start from the state directory: completed campaigns \
             keep their reports, interrupted ones resume from their \
             checkpoints bit-for-bit.  Without it the state directory is \
             wiped.")
  in
  let oneshot_arg =
    Arg.(
      value & flag
      & info [ "oneshot" ]
          ~doc:
            "Ingest the startup spec files and the spool once, run the \
             queue dry, exit.  Without it the service polls the spool \
             until a signal drains it.")
  in
  let poll_arg =
    Arg.(
      value & opt float 1.0
      & info [ "poll" ] ~docv:"SECONDS" ~doc:"Spool/status poll period.")
  in
  let kill_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after-saves" ] ~docv:"N"
          ~doc:
            "Chaos hook (testing): hard-kill every campaign at its next \
             checkpoint write once N saves happened service-wide, exit 5; \
             a --resume rerun must complete identically.")
  in
  let http_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "http-port" ] ~docv:"PORT"
          ~doc:
            "Serve the query plane on 127.0.0.1:PORT ($(b,/status), \
             $(b,/matrix), $(b,/metrics), $(b,/estimates), \
             $(b,/campaigns/:id/report), $(b,POST /submit)).  PORT 0 \
             picks a free port (printed on startup).  Without it no \
             socket is opened and behaviour is unchanged.")
  in
  let http_threads_arg =
    Arg.(
      value & opt int 4
      & info [ "http-threads" ] ~docv:"N"
          ~doc:"HTTP worker threads (connections served concurrently).")
  in
  let http_deadline_arg =
    Arg.(
      value & opt float 2.0
      & info [ "http-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-request budget from first byte to response; requests \
             still incomplete at the deadline are answered 408 and \
             handlers shed waits that would cross it (503 + Retry-After).")
  in
  let http_shed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "http-shed-watermark" ] ~docv:"N"
          ~doc:
            "Connection-queue depth at which new clients are shed with \
             503 + Retry-After instead of queueing (default 2*threads+8).")
  in
  let run state_dir spool spec_files max_queue jobs campaign_jobs
      max_attempts resume oneshot poll_s checkpoint_every chain_deadline
      sweep_budget telemetry metrics_out trace_out kill_after http_port
      http_threads http_deadline http_shed =
    (* The query plane serves /metrics, so an HTTP port implies a live
       registry (campaign results are bit-for-bit identical either way). *)
    let reg =
      registry_of
        ~telemetry:(telemetry || http_port <> None)
        ~metrics_out ~trace_out
    in
    let cfg =
      { (Service.default_config ~state_dir) with
        Service.limit = max_queue;
        jobs;
        campaign_jobs;
        max_attempts;
        every_sweeps =
          (match checkpoint_every with Some _ as e -> e | None -> Some 25);
        chain_deadline_s = chain_deadline;
        sweep_budget;
        telemetry = reg;
        kill_after_saves = kill_after }
    in
    let svc = if resume then Service.load cfg else Service.create cfg in
    List.iter (Printf.eprintf "serve: recovery: %s\n%!") (Service.warnings svc);
    install_drain_handlers ();
    (* The query plane serves generation-stamped snapshots, so it can come
       up before any campaign runs and stays up through the drain (final
       states remain queryable until the process exits). *)
    let http =
      Option.map
        (fun port ->
          let srv =
            Because_http.Server.start ~registry:reg ~threads:http_threads
              ~request_deadline:http_deadline ?shed_watermark:http_shed
              ~port
              (Because_service.Query.router ~registry:reg svc)
          in
          Printf.printf "serve: http on 127.0.0.1:%d\n%!"
            (Because_http.Server.port srv);
          srv)
        http_port
    in
    List.iter (ingest_file svc) spec_files;
    let spool_submitted = Hashtbl.create 8 in
    Option.iter (scan_spool spool_submitted svc) spool;
    let verdict =
      if oneshot then Service.run_until_idle svc
      else begin
        Service.start svc;
        let last_matrix = ref "" in
        while not (Service.draining svc || Service.killed svc) do
          Unix.sleepf poll_s;
          Option.iter (scan_spool spool_submitted svc) spool;
          Service.write_status svc;
          let m = Because_service.Store.matrix (Service.store svc) in
          if m <> !last_matrix then begin
            last_matrix := m;
            print_string m;
            flush stdout
          end
        done;
        (* A signal raised the global drain flag; now do the mutex-side
           half the handler could not: stop admissions, wake idle
           workers. *)
        Service.drain svc;
        Service.join svc
      end
    in
    Option.iter Because_http.Server.stop http;
    let warned = Service.warnings svc in
    List.iteri
      (fun i w -> if i < 50 then Printf.eprintf "serve: recovery: %s\n%!" w)
      warned;
    print_string (Because_service.Store.matrix (Service.store svc));
    Printf.printf "serve: %s\n"
      (match verdict with
      | Service.Completed -> "completed"
      | Service.Drained -> "drained (resumable with --resume)"
      | Service.Killed -> "killed by chaos hook (resumable with --resume)");
    (* Exit contract: 0/3/4 health rollup when the queue ran dry; 5 when
       interrupted-but-checkpointed (drain or chaos kill); 6 on a second
       signal (forced, from the handler); 1 on hard failure. *)
    let code = Service.exit_code svc verdict in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Always-on tomography service: multiplex many campaigns over a \
          worker pool with bounded admission, per-campaign supervision \
          and graceful drain.  Exit codes: 0 healthy, 3 degraded, 4 \
          insufficient, 5 interrupted-but-checkpointed (rerun with \
          $(b,--resume)), 6 forced shutdown, 1 hard failure.")
    Term.(
      const run $ state_dir_arg $ spool_arg $ spec_files_arg $ max_queue_arg
      $ service_jobs_arg $ campaign_jobs_arg $ max_attempts_arg
      $ serve_resume_arg $ oneshot_arg $ poll_arg $ checkpoint_every_arg
      $ chain_deadline_arg $ sweep_budget_arg $ telemetry_arg
      $ metrics_out_arg $ trace_out_arg $ kill_after_arg $ http_port_arg
      $ http_threads_arg $ http_deadline_arg $ http_shed_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "BeCAUSe: Bayesian computation for autonomous systems — locating Route \
     Flap Damping (IMC 2020 reproduction)"
  in
  (* ~catch:false so hard failures reach our handler and exit 1, keeping
     the documented contract (0 ok, 3 degraded, 4 insufficient, 1 hard
     failure) instead of cmdliner's internal-error code. *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group (Cmd.info "because" ~doc)
            [
              topology_cmd; rfd_trace_cmd; campaign_cmd; sweep_cmd; infer_cmd;
              export_dump_cmd; label_dump_cmd; rov_cmd; serve_cmd;
            ])
     with e ->
       Printf.eprintf "because: fatal: %s\n" (Printexc.to_string e);
       1)

(* campaign_verify: a closed loop with one client running sequential
   [Campaign.run] calls on the verify world (20 transit, 80 stub, 16
   vantage hosts, 2 cycles, 1-minute interval, jobs 1, sim_jobs 1), one
   fresh world per unit.  The only workload where sim, collector and
   labeling do real work.

   The traced run drives the same pipeline stage by stage through each
   layer's public entry points (the stage driver below), times every call,
   and checks per seed that it reproduces [Campaign.run]'s record count and
   categories exactly; a mismatch fails the unit. *)

open Because_bgp
module Sc = Because_scenario
module Schedule = Because_beacon.Schedule
module Site = Because_beacon.Site
module Script = Because_sim.Script
module Sharded = Because_sim.Sharded
module Dump = Because_collector.Dump
module Label = Because_labeling.Label
module Combine = Because_heuristics.Combine
module Tel = Because_telemetry.Registry

(* Nominal unit wall time on a 2-core x86 host; fixes how many units a run
   of [seconds] holds, so every run does the same amount of work. *)
let nominal_unit_s = 2.0
let setups = 3
let n_worlds = 3

let world_params seed =
  { Sc.World.default_params with
    Sc.World.seed;
    n_vantage_hosts = 16;
    topology =
      { Because_topology.Generate.default_params with
        Because_topology.Generate.n_transit = 20;
        n_stub = 80 } }

(* Exactly what `because campaign --transit 20 --stub 80 --vantage-hosts 16
   --cycles 2` runs. *)
let params =
  Sc.Campaign.with_jobs ~n_chains:1 ~sim_jobs:1
    { (Sc.Campaign.default_params ~update_interval:60.0) with
      Sc.Campaign.cycles = 2 }
    1

(* Output check: a healthy campaign that labeled paths, categorised every
   measured AS, and flagged only ASs it measured.  Precision and recall
   against the planted deployment go to the log. *)
let check world (o : Sc.Campaign.outcome) =
  let universe = Sc.Campaign.universe o in
  let flagged = Sc.Campaign.because_damping o in
  let truth = Sc.Deployment.detectable_dampers (Sc.World.deployment world) in
  Pb.log "  flagged %d: %s" (Asn.Set.cardinal flagged)
    (Format.asprintf "%a" Because.Evaluate.pp
       (Because.Evaluate.of_sets ~predicted:flagged ~truth ~universe));
  o.Sc.Campaign.status = Because_recover.Supervise.Healthy
  && o.Sc.Campaign.records <> []
  && o.Sc.Campaign.labeled <> []
  && List.length o.Sc.Campaign.categories = Asn.Set.cardinal universe
  && Asn.Set.subset flagged universe

type staged = {
  records : int;
  categories : (Asn.t * Because.Categorize.t) list;
  labeled : Label.labeled_path list;
}

(* [Campaign.run] for one interval, fault-free, no recovery — rebuilt from
   the layers' public functions in the order the campaign calls them, each
   call timed into [rows].  [reg] is an enabled registry: the simulator
   and samplers record their own spans into it (telemetry never changes
   results). *)
let stage_driver world (p : Sc.Campaign.params) reg rows aux =
  let interval = p.Sc.Campaign.update_interval in
  let salt = (p.Sc.Campaign.cycles * 31) + int_of_float (interval *. 7919.0) in
  let noise_rng = Sc.World.fresh_rng world ~salt:(salt + 1) in
  let schedule =
    Schedule.of_durations ~lead_in:p.Sc.Campaign.lead_in
      ~update_interval:interval ~burst_duration:p.Sc.Campaign.burst_duration
      ~break_duration:p.Sc.Campaign.break_duration ~cycles:p.Sc.Campaign.cycles
      ()
  in
  let campaign_end =
    Schedule.end_time schedule +. p.Sc.Campaign.break_duration +. 600.0
  in
  let anchor_cycles =
    1
    + int_of_float
        (Float.ceil (campaign_end /. (2.0 *. p.Sc.Campaign.anchor_period)))
  in
  let script =
    Layers.timed rows "beacon.stimulus_s" (fun () ->
        let sites =
          List.map
            (fun (site_id, origin) ->
              Site.make ~site_id ~origin
                ~anchor_period:p.Sc.Campaign.anchor_period ~anchor_cycles
                ~oscillating:[ schedule ] ())
            (Sc.World.site_origins world)
        in
        let script = Script.create () in
        List.iter (fun site -> Site.install site script) sites;
        (sites, script))
  in
  let sites, script = script in
  let w0 = Gc.minor_words () in
  let sim =
    Layers.timed rows "sim.replay_s" (fun () ->
        Sharded.run ~telemetry:reg ~jobs:p.Sc.Campaign.sim_jobs
          ~configs:(Sc.World.router_configs world)
          ~delay:(Sc.World.delay world)
          ~monitored:(Sc.World.monitored world)
          ~until:campaign_end script)
  in
  Layers.add aux "sim.minor_mw" ((Gc.minor_words () -. w0) /. 1e6);
  Layers.add aux "sim.events" (float_of_int sim.Sharded.events);
  let records =
    Layers.timed rows "collect.dump_s" (fun () ->
        Dump.of_feeds noise_rng ~feed_of:(Sharded.feed sim)
          ~vantages:(Sc.World.vantages world) ~noise:p.Sc.Campaign.noise
          ~campaign_end ())
  in
  Layers.add aux "collect.records" (float_of_int (List.length records));
  let infer_rng = Sc.World.fresh_rng world ~salt:(salt + 3) in
  let oscillating =
    List.fold_left
      (fun osc site ->
        match Site.oscillating_prefix site ~interval with
        | Some px -> Prefix.Set.add px osc
        | None -> osc)
      Prefix.Set.empty sites
  in
  let windows = Schedule.windows schedule in
  let windows_of prefix =
    if Prefix.Set.mem prefix oscillating then windows else []
  in
  let labeled =
    Layers.timed rows "label.label_s" (fun () ->
        Label.label_all ~min_r_delta:p.Sc.Campaign.min_r_delta
          ~match_threshold:p.Sc.Campaign.match_threshold ~records ~windows_of
          ())
  in
  let observations = Label.observations labeled in
  Layers.add aux "label.paths" (float_of_int (List.length labeled));
  Layers.add aux "label.rfd_paths"
    (float_of_int (List.length (List.filter snd observations)));
  let data =
    Layers.timed rows "tomography.build_s" (fun () ->
        Because.Tomography.of_observations observations)
  in
  let config =
    { p.Sc.Campaign.infer_config with
      Because.Infer.node_priors = Sc.World.node_priors world;
      telemetry = reg }
  in
  let w0 = Gc.minor_words () in
  let t0 = Pb.now_ns () in
  let result = Because.Infer.run ~rng:infer_rng ~config data in
  let infer_s = Pb.secs t0 (Pb.now_ns ()) in
  Layers.add aux "infer.minor_mw" ((Gc.minor_words () -. w0) /. 1e6);
  Layers.add aux "infer.gate_sweeps"
    (match Because.Infer.gate_draws result with
    | Some d -> float_of_int (config.Because.Infer.burn_in + d)
    | None -> 0.0);
  let categories =
    Layers.timed rows "categorize.s" (fun () ->
        let min_support = p.Sc.Campaign.min_path_support in
        let step1 = Because.Categorize.assign ~min_support result in
        let insufficient = Because.Categorize.insufficient result ~min_support in
        let promos =
          List.filter
            (fun (pr : Because.Pinpoint.promotion) ->
              not
                (List.exists (Asn.equal pr.Because.Pinpoint.asn) insufficient))
            (Because.Pinpoint.promotions result ~categories:step1)
        in
        Because.Pinpoint.apply step1 promos)
  in
  ignore
    (Layers.timed rows "heuristics.s" (fun () ->
         Combine.evaluate ~records ~labeled ~windows_of ()));
  ( { records = List.length records; categories; labeled },
    infer_s,
    observations )

(* The verify world (seed 42) and its neighbours
   form a fixed panel of worlds.  A run visits all [n] of them in each of
   its rounds, each round in an order drawn from the workload seed.
   Every run thus measures the same worlds, so a run's median does not
   move with which worlds a seed happened to draw, and a world's repeats
   lie seconds apart, spread over the whole run. *)
let panel n = List.init n (fun j -> 42 + j)

let unit_rounds ~rounds seed n =
  let st = Pb.rng seed "campaign" in
  List.init rounds (fun _ -> Pb.shuffle st (panel n))

let setup_seeds seed = Pb.shuffle (Pb.rng seed "setup") (panel setups)

(* Every set-up and every unit runs in a child forked from the small
   parent process, the way each `because campaign` is a fresh process:
   each one starts from the same heap, so a unit's cost and the process
   peak RSS do not depend on which units ran before it.  Returns the
   child's result and its VmHWM. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc (v, Pb.peak_rss_mb ()) [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v, hwm =
        try (Marshal.from_channel ic : (_, string) result * float)
        with End_of_file -> (Error "child died", 0.0)
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match v with Error e -> Pb.log "campaign_verify: %s" e | Ok _ -> ());
      (v, hwm)

(* Setup: world build + one discarded warm-up campaign, done [setups]
   times; setup_s is their median. *)
let setup world_params params s =
  Gc.full_major ();
  let t0 = Pb.now_ns () in
  let world = Sc.World.build (world_params s) in
  let o = Sc.Campaign.run world params in
  let dt = Pb.secs t0 (Pb.now_ns ()) in
  if not (check world o) then failwith "warm-up campaign failed its check";
  dt

type unit_result = {
  wall : float;
  cpu : float;
  ok : bool;
  traced : (Layers.unit_rows * (string, float) Hashtbl.t * float) option;
      (** Sum rows, auxiliary counts, overhead % of the stage driver. *)
}

(* One unit: the untraced [Campaign.run].  With [trace], the stage driver
   replays the same world too (the two alternate which goes first), and
   must reproduce the campaign's record count, labeled paths and
   categories. *)
let unit_ world_params params ~trace ~order s =
  let t_w = Pb.now_ns () in
  let world = Sc.World.build (world_params s) in
  let topology_s = Pb.secs t_w (Pb.now_ns ()) in
  let staged = ref None in
  let run_staged () =
    Gc.full_major ();
    let reg = Tel.create () in
    let rows = Layers.new_rows () and aux = Layers.new_rows () in
    let t0 = Pb.now_ns () in
    let r = stage_driver world params reg rows aux in
    staged := Some (r, Pb.secs t0 (Pb.now_ns ()), Tel.snapshot reg, rows, aux)
  in
  if trace && order = 0 then run_staged ();
  Gc.full_major ();
  let c0 = Pb.cpu_s () in
  let t0 = Pb.now_ns () in
  let o = Sc.Campaign.run world params in
  let wall = Pb.secs t0 (Pb.now_ns ()) in
  let cpu = Pb.cpu_s () -. c0 in
  let ok = check world o in
  Pb.log "campaign_verify world %d: %.3f s wall, %.3f s cpu" s wall cpu;
  if trace && order = 1 then run_staged ();
  match !staged with
  | None -> { wall; cpu; ok; traced = None }
  | Some ((staged, infer_s, observations), twall, snap, rows, aux) ->
      let mh = Layers.sampler_total snap ~sampler:"MH"
      and hmc = Layers.sampler_total snap ~sampler:"HMC" in
      Layers.add rows "infer.mh_s" mh;
      Layers.add rows "infer.hmc_s" hmc;
      Layers.add rows "infer.other_s" (infer_s -. mh -. hmc);
      Layers.add aux "topology.build_s" topology_s;
      Layers.add aux "infer.sweeps"
        (float_of_int (Layers.counter snap "mcmc.sweeps"));
      Layers.add aux "infer.grad_evals"
        (float_of_int (Layers.counter snap "mcmc.hmc.grad_evals"));
      Layers.add aux "tomography.paths_n"
        (float_of_int (List.length observations));
      Layers.add aux "tomography.paths_u"
        (float_of_int
           (List.length (List.sort_uniq compare (List.map fst observations))));
      let same =
        staged.records = List.length o.Sc.Campaign.records
        && staged.categories = o.Sc.Campaign.categories
        && List.length staged.labeled = List.length o.Sc.Campaign.labeled
      in
      if not same then
        Pb.log "campaign_verify world %d: stage driver diverged from \
                Campaign.run" s;
      { wall; cpu; ok = ok && same;
        traced =
          Some ({ Layers.wall = twall; rows }, aux,
                100.0 *. (twall -. wall) /. wall) }

let run ?(world_params = world_params) ?(params = params)
    ?(worlds = n_worlds) ~seed ~seconds ~trace () =
  let rounds =
    max 1 (int_of_float (seconds /. (nominal_unit_s *. float_of_int worlds)))
  in
  (* A run that overruns four times its nominal budget stops early. *)
  let deadline =
    Int64.add (Pb.now_ns ())
      (Int64.of_float
         (float_of_int ((worlds * rounds) + setups) *. nominal_unit_s *. 4.0 *. 1e9))
  in
  (* A host probe runs before the first item and after every set-up and
     unit.  Set-up i runs before round [i * rounds / setups], so the
     set-ups are spread over the run like the units. *)
  let host = Host.create () in
  Host.probe host;
  let then_probe f =
    let r = in_child f in
    Host.probe host;
    r
  in
  let setup_seeds = setup_seeds seed in
  let setup_runs = ref [] and results = ref [] in
  List.iteri
    (fun r round ->
      List.iteri
        (fun i s ->
          if i * rounds / setups = r then begin
            let ((v, _) as run) =
              then_probe (fun () -> setup world_params params s)
            in
            if Result.is_error v then failwith "campaign_verify: set-up failed";
            setup_runs := run :: !setup_runs
          end)
        setup_seeds;
      List.iteri
        (fun p s ->
          if Pb.now_ns () < deadline then
            let order = ((r * worlds) + p) mod 2 in
            results :=
              then_probe (fun () -> unit_ world_params params ~trace ~order s)
              :: !results)
        round)
    (unit_rounds ~rounds seed worlds);
  let setup_runs = List.rev !setup_runs and results = List.rev !results in
  let setup_times = List.map (fun (v, _) -> Result.get_ok v) setup_runs in
  let attempted = List.length results in
  let failed =
    List.length
      (List.filter
         (fun (v, _) -> match v with Ok u -> not u.ok | Error _ -> true)
         results)
  in
  let units = List.filter_map (fun (v, _) -> Result.to_option v) results in
  let hwm =
    List.fold_left Float.max 0.0 (List.map snd setup_runs @ List.map snd results)
  in
  let correct = failed = 0 in
  let raw_latency = Pb.median (List.map (fun u -> u.wall) units)
  and raw_cpu = Pb.median (List.map (fun u -> u.cpu) units) in
  if not trace then begin
    Pb.log "campaign_verify: raw latency p50 %.3f s, mean probe %.3f s"
      raw_latency (Host.probe_s host);
    (* Times in reference seconds (host.ml). *)
    let k = Host.scale host ~cpu:false and k_cpu = Host.scale host ~cpu:true in
    Pb.emit ~correct ~attempted ~failed
      [ Pb.m "setup_s" "s" (k *. Pb.median setup_times);
        Pb.m "latency_p50_s" "s" (k *. raw_latency);
        Pb.m "cpu_p50_s" "s" (k_cpu *. raw_cpu);
        Pb.m "peak_rss_mb" "MB" hwm;
        Pb.m "ok_pct" "%"
          (100.0 *. float_of_int (attempted - failed) /. float_of_int (max 1 attempted)) ]
  end
  else begin
    let traced = List.filter_map (fun u -> u.traced) units in
    let aux_mean name =
      Pb.mean
        (List.map
           (fun (_, a, _) -> Option.value ~default:0.0 (Hashtbl.find_opt a name))
           traced)
    in
    let dec = Layers.decomposition (List.map (fun (r, _, _) -> r) traced) in
    let sim_s = Option.value ~default:0.0 (List.assoc_opt "sim.replay_s" dec) in
    let n = aux_mean "tomography.paths_n" and u = aux_mean "tomography.paths_u" in
    let values =
      dec
      @ List.map
          (fun k -> (k, aux_mean k))
          [ "topology.build_s"; "sim.events"; "sim.minor_mw"; "collect.records";
            "label.paths"; "label.rfd_paths"; "tomography.paths_n";
            "tomography.paths_u"; "infer.sweeps"; "infer.grad_evals";
            "infer.gate_sweeps"; "infer.minor_mw" ]
      @ [ ("sim.events_per_s",
           if sim_s > 0.0 then aux_mean "sim.events" /. sim_s else 0.0);
          ("tomography.u_over_n", if n > 0.0 then u /. n else 0.0);
          ("trace_overhead_pct",
           Pb.median (List.map (fun (_, _, o) -> o) traced));
          ("host.probe_s", Host.probe_s host);
          ("raw.setup_s", Pb.median setup_times);
          ("raw.latency_p50_s", raw_latency);
          ("raw.cpu_p50_s", raw_cpu) ]
    in
    Pb.emit ~correct ~attempted ~failed (Layers.metrics values)
  end

open Because_bgp
module Rng = Because_stats.Rng
module Dist = Because_stats.Dist
module Schedule = Because_beacon.Schedule
module Site = Because_beacon.Site
module Script = Because_sim.Script
module Sharded = Because_sim.Sharded
module Dump = Because_collector.Dump
module Noise = Because_collector.Noise
module Label = Because_labeling.Label
module Combine = Because_heuristics.Combine
module Plan = Because_faults.Plan
module Injector = Because_faults.Injector
module Tel = Because_telemetry.Registry
module Supervise = Because_recover.Supervise

type params = {
  update_interval : float;
  burst_duration : float;
  break_duration : float;
  cycles : int;
  lead_in : float;
  anchor_period : float;
  noise : Noise.params;
  min_r_delta : float;
  match_threshold : float;
  infer_config : Because.Infer.config;
  run_inference : bool;
  background_prefixes : int;
  background_mean_gap : float;
  faults : Plan.t;
  min_path_support : int;
  sim_jobs : int;
  telemetry : Tel.t;
}

let default_params ~update_interval =
  {
    update_interval;
    burst_duration = 7200.0;
    break_duration = 7200.0;
    cycles = 4;
    lead_in = 1800.0;
    anchor_period = 7200.0;
    noise = Noise.realistic;
    (* The paper separates signals at 5 min for a world with ≤1 min
       propagation; our collector export latency reaches 2 min and MRAI
       chains stack, while the fastest genuine release (10-min
       max-suppress timer) sits at 600 s — so the default threshold sits
       between the two.  The `ablations` bench sweeps this value. *)
    min_r_delta = 480.0;
    match_threshold = 0.9;
    infer_config = Because.Infer.default_config;
    run_inference = true;
    background_prefixes = 0;
    background_mean_gap = 1800.0;
    faults = Plan.empty;
    min_path_support = 1;
    sim_jobs = 1;
    telemetry = Tel.disabled;
  }

type stimulus = {
  schedules : Schedule.t list;
  sites : Site.t list;
  campaign_end : float;
  script : Script.t;
}

type outcome = {
  params : params;
  schedule : Schedule.t;
  sites : Site.t list;
  records : Dump.record list;
  labeled : Label.labeled_path list;
  windows : (float * float * float) list;
  oscillating : Prefix.Set.t;
  anchors : Prefix.Set.t;
  result : Because.Infer.result option;
  posterior : Because.Posterior.t option;
  categories_step1 : (Asn.t * Because.Categorize.t) list;
  categories : (Asn.t * Because.Categorize.t) list;
  promotions : Because.Pinpoint.promotion list;
  heuristic_verdicts : Combine.verdict list;
  deliveries : int;
  events : int;
  shard_events : int array;
  campaign_end : float;
  fault_log : (float * Injector.injected) list;
  insufficient : Asn.t list;
  warnings : string list;
  telemetry : Because_telemetry.Snapshot.t option;
  status : Supervise.status;
}

(* A /24 per churn prefix starting at 172.16.0.0 and growing upward through
   172/8: the first 4096 land in the historical 172.16.0.0/12 home (the
   addition below equals the old logor for k < 4096, so existing campaigns
   reproduce bit-for-bit), and the space runs to the top of 172.255.255.0/24
   — 61440 prefixes, still disjoint from the 10/8 Beacon ranges — before it
   would wrap into 173/8. *)
let max_background_prefixes = 61440

let schedule_background rng world script ~count ~mean_gap ~campaign_end =
  if count > max_background_prefixes then
    invalid_arg
      (Printf.sprintf
         "Campaign: background_prefixes %d exceeds the %d /24s between \
          172.16.0.0 and the top of 172/8"
         count max_background_prefixes);
  if count > 0 then begin
    let graph = World.graph world in
    let origins =
      List.fold_left
        (fun acc (_, o) -> Asn.Set.add o acc)
        Asn.Set.empty (World.site_origins world)
    in
    let candidates =
      Array.of_list
        (List.filter
           (fun a -> not (Asn.Set.mem a origins))
           (Because_topology.Graph.ases graph))
    in
    for k = 0 to count - 1 do
      let origin = Rng.choice rng candidates in
      let prefix =
        (* 172.16+ space keeps churn clearly apart from Beacons. *)
        Prefix.make
          (Int32.add 0xAC100000l (Int32.shift_left (Int32.of_int k) 8))
          24
      in
      Script.announce script ~time:0.0 ~origin prefix;
      let t = ref (Dist.exponential rng ~rate:(1.0 /. mean_gap)) in
      let announced = ref true in
      while !t < campaign_end do
        if !announced then Script.withdraw script ~time:!t ~origin prefix
        else Script.announce script ~time:!t ~origin prefix;
        announced := not !announced;
        t := !t +. Dist.exponential rng ~rate:(1.0 /. mean_gap)
      done
    done
  end

let schedule_of params interval =
  Schedule.of_durations ~lead_in:params.lead_in ~update_interval:interval
    ~burst_duration:params.burst_duration
    ~break_duration:params.break_duration ~cycles:params.cycles ()

let campaign_end params schedules =
  List.fold_left (fun acc s -> Float.max acc (Schedule.end_time s)) 0.0 schedules
  +. params.break_duration +. 600.0

(* The whole stimulus — fault plan, Beacon schedules, background churn — is
   recorded into a script in the historical scheduling order. *)
let stimulus world params ~intervals ~churn_rng =
  let schedules = List.map (schedule_of params) intervals in
  let campaign_end = campaign_end params schedules in
  let anchor_cycles =
    1 + int_of_float (Float.ceil (campaign_end /. (2.0 *. params.anchor_period)))
  in
  let sites =
    List.map
      (fun (site_id, origin) ->
        Site.make ~site_id ~origin ~anchor_period:params.anchor_period
          ~anchor_cycles ~oscillating:schedules ())
      (World.site_origins world)
  in
  let script = Script.create () in
  if not (Plan.is_empty params.faults) then Injector.install params.faults script;
  List.iter
    (fun site ->
      let outages = Plan.site_outages params.faults ~site_id:site.Site.site_id in
      Site.install ~outages site script)
    sites;
  schedule_background churn_rng world script ~count:params.background_prefixes
    ~mean_gap:params.background_mean_gap ~campaign_end;
  { schedules; sites; campaign_end; script }

(* Fingerprint of everything that determines the campaign's results: world
   parameters, the fully-recorded stimulus script, the interval set, every
   result-affecting campaign scalar, the noise and fault plans, and the
   inference settings.  Both records are destructured field by field under
   warning 9, so a new field does not compile until it is listed here as
   fingerprinted or excluded.  Excluded are the parallelism knobs
   ([sim_jobs], infer [jobs]): outcomes are invariant in them,
   faulted campaigns included.  So is the supervision budget; resuming with
   more workers or a larger budget is exactly the operational move the
   checkpoint store exists to allow.  The rest of the excluded fields are
   replaced before use: [update_interval] by [intervals], [node_priors] by
   the world's, [telemetry] and [checkpoint] by the campaign's own. *)
let[@warning "@9"] fingerprint world params ~intervals ~script =
  let { update_interval = _; burst_duration; break_duration; cycles; lead_in;
        anchor_period; noise; min_r_delta; match_threshold; infer_config;
        run_inference; background_prefixes; background_mean_gap; faults;
        min_path_support; sim_jobs = _; telemetry = _ } =
    params
  in
  let { Because.Infer.n_samples; burn_in; prior; node_priors = _;
        false_negative_rate; leapfrog_steps; n_chains; jobs = _;
        telemetry = _; supervise = _; checkpoint = _; init } =
    infer_config
  in
  Marshal.to_string
    ( World.params world,
      Script.ops script,
      intervals,
      ( burst_duration, break_duration, cycles, lead_in, anchor_period,
        min_r_delta, match_threshold, run_inference, background_prefixes,
        background_mean_gap, min_path_support ),
      noise,
      faults,
      ( n_samples, burn_in, prior, false_negative_rate, leapfrog_steps,
        n_chains, init ) )
    [ Marshal.No_sharing ]
  |> Digest.string |> Digest.to_hex

(* Campaign health for one interval's outcome: inference that was asked for
   but starved of observations is [Insufficient]; budget-aborted or fully
   dead chains degrade to heuristics; everything else is healthy. *)
let status_of ~params ~interval result =
  match result with
  | Some r -> Because.Infer.status r
  | None when params.run_inference ->
      Supervise.Insufficient
        [
          Printf.sprintf
            "interval %gs: no labeled observations survived to localize"
            interval;
        ]
  | None -> Supervise.Healthy

let run_multi ?recovery world params ~intervals =
  if intervals = [] then invalid_arg "Campaign.run_multi: no intervals";
  let distinct = List.sort_uniq Float.compare intervals in
  if List.length distinct <> List.length intervals then
    invalid_arg "Campaign.run_multi: intervals must be distinct";
  let salt =
    List.fold_left
      (fun acc iv -> (acc * 31) + int_of_float (iv *. 7919.0))
      params.cycles intervals
  in
  let noise_rng = World.fresh_rng world ~salt:(salt + 1) in
  let churn_rng = World.fresh_rng world ~salt:(salt + 2) in
  (* The stimulus is replayed over per-prefix shards; the outcome does not
     depend on how many run at once. *)
  let { schedules; sites; campaign_end; script } =
    Tel.Span.with_ params.telemetry ~name:"campaign.stimulus" (fun () ->
        stimulus world params ~intervals ~churn_rng)
  in
  let gaps_of vp_id = Plan.collector_outages params.faults ~vp_id in
  (* Impairment draws are keyed by a seed from their own stream (salt + 4);
     a fault-free campaign takes no draw. *)
  let fault_seed =
    Int64.to_int (Rng.int64 (World.fresh_rng world ~salt:(salt + 4)))
  in
  (* The store opens only once the stimulus is complete: the fingerprint
     covers the recorded script, so a snapshot can never be replayed into a
     different campaign. *)
  Option.iter
    (fun r ->
      Recovery.attach r
        ~fingerprint:(fingerprint world params ~intervals ~script))
    recovery;
  let sim =
    Tel.Span.with_ params.telemetry ~name:"campaign.sim" (fun () ->
        Sharded.run ~fault_seed ~telemetry:params.telemetry
          ?checkpoint:(Option.map Recovery.sim_hooks recovery)
          ~jobs:params.sim_jobs
          ~configs:(World.router_configs world)
          ~delay:(World.delay world)
          ~monitored:(World.monitored world)
          ~until:campaign_end script)
  in
  (* Drain boundary: a shutdown requested mid-simulation lands here once
     the in-flight shards have checkpointed; everything below is cheaper to
     recompute on resume than to persist. *)
  Supervise.check_drain ();
  let fault_log = Injector.log_of ~plan:params.faults sim.Sharded.fault_log in
  if Tel.is_enabled params.telemetry then
    Injector.flush_telemetry params.telemetry ~plan:params.faults
      ~log:fault_log;
  let records =
    Tel.Span.with_ params.telemetry ~name:"campaign.collect" (fun () ->
        Dump.of_feeds ~gaps_of noise_rng ~feed_of:(Sharded.feed sim)
          ~vantages:(World.vantages world) ~noise:params.noise ~campaign_end
          ())
  in
  let anchors =
    List.fold_left
      (fun anc site ->
        match Site.anchor_prefix site with
        | Some p -> Prefix.Set.add p anc
        | None -> anc)
      Prefix.Set.empty sites
  in
  let deliveries = sim.Sharded.stats.Because_sim.Network.deliveries in
  let outcomes =
    List.mapi
    (fun k (interval, schedule) ->
      Supervise.check_drain ();
      let infer_rng = World.fresh_rng world ~salt:(salt + 3 + k) in
      let oscillating =
        List.fold_left
          (fun osc site ->
            match Site.oscillating_prefix site ~interval with
            | Some p -> Prefix.Set.add p osc
            | None -> osc)
          Prefix.Set.empty sites
      in
      let windows = Schedule.windows schedule in
      let windows_of prefix =
        if Prefix.Set.mem prefix oscillating then windows else []
      in
      let labeled =
        Tel.Span.with_ params.telemetry ~name:"campaign.label" (fun () ->
            Label.label_all ~min_r_delta:params.min_r_delta
              ~match_threshold:params.match_threshold ~gaps_of ~records
              ~windows_of ())
      in
      let observations = Label.observations labeled in
      let localized =
        if params.run_inference && observations <> [] then begin
          let checkpoint =
            match recovery with
            | Some r ->
                (* One key namespace per interval: chains of different
                   intervals are distinct posteriors. *)
                Some
                  (Recovery.chain_hooks r
                     ~namespace:(Printf.sprintf "iv%d." k))
            | None -> params.infer_config.Because.Infer.checkpoint
          in
          let config =
            { params.infer_config with
              Because.Infer.node_priors = World.node_priors world;
              telemetry = params.telemetry;
              checkpoint }
          in
          Some
            (Because.Pinpoint.localize ~infer_span:"campaign.infer"
               ~categorize_span:"campaign.categorize" ~rng:infer_rng ~config
               ~min_path_support:params.min_path_support observations)
        end
        else None
      in
      let result = Option.map fst localized in
      let status = status_of ~params ~interval result in
      let pipelined f =
        Option.fold ~none:[] ~some:(fun (_, p) -> f p) localized
      in
      let heuristic_verdicts =
        if labeled = [] then []
        else
          Tel.Span.with_ params.telemetry ~name:"campaign.heuristics"
            (fun () -> Combine.evaluate ~records ~labeled ~windows_of ())
      in
      {
        params = { params with update_interval = interval };
        schedule;
        sites;
        records;
        labeled;
        windows;
        oscillating;
        anchors;
        result;
        posterior =
          Option.map (fun (_, p) -> p.Because.Pinpoint.posterior) localized;
        categories_step1 = pipelined (fun p -> p.step1);
        categories = pipelined (fun p -> p.categories);
        promotions = pipelined (fun p -> p.promotions);
        heuristic_verdicts;
        deliveries;
        events = sim.Sharded.events;
        shard_events = sim.Sharded.shard_events;
        campaign_end;
        fault_log;
        insufficient = pipelined (fun p -> p.insufficient);
        warnings =
          Option.fold ~none:[] ~some:(fun r -> r.Because.Infer.warnings) result;
        telemetry = None;
        status;
      })
    (List.combine intervals schedules)
  in
  (* One snapshot for the whole multi-interval campaign, taken after every
     phase has flushed; each per-interval outcome carries the same view. *)
  let snap =
    if Tel.is_enabled params.telemetry then Some (Tel.snapshot params.telemetry)
    else None
  in
  Option.iter (fun r -> Option.iter (Recovery.save_telemetry r) snap) recovery;
  match snap with
  | Some s -> List.map (fun o -> { o with telemetry = Some s }) outcomes
  | None -> outcomes

let run ?recovery world params =
  List.hd (run_multi ?recovery world params ~intervals:[ params.update_interval ])

let with_jobs ?n_chains ?sim_jobs params jobs =
  let infer_config =
    { params.infer_config with
      Because.Infer.jobs;
      n_chains =
        Option.value n_chains
          ~default:params.infer_config.Because.Infer.n_chains }
  in
  { params with
    infer_config;
    sim_jobs = Option.value sim_jobs ~default:params.sim_jobs }

let horizon params =
  campaign_end params [ schedule_of params params.update_interval ]

let draw_faults world params severity =
  let rng = World.fresh_rng world ~salt:5 in
  let links = Because_topology.Graph.links (World.graph world) in
  let site_ids = List.map fst (World.site_origins world) in
  let vp_ids =
    List.map
      (fun (v : Because_collector.Vantage.t) ->
        v.Because_collector.Vantage.vp_id)
      (World.vantages world)
  in
  Plan.draw rng severity ~links ~site_ids ~vp_ids ~horizon:(horizon params)

let windows_of outcome prefix =
  if Prefix.Set.mem prefix outcome.oscillating then outcome.windows else []

let observations outcome = Label.observations outcome.labeled

let because_damping outcome =
  Because.Evaluate.damping_set outcome.categories

let heuristic_damping outcome = Combine.damping_set outcome.heuristic_verdicts

let universe outcome =
  List.fold_left
    (fun acc (path, _) ->
      List.fold_left (fun acc asn -> Asn.Set.add asn acc) acc path)
    Asn.Set.empty (observations outcome)

let site_of_prefix outcome prefix =
  List.find_map
    (fun (site : Site.t) ->
      if
        List.exists
          (fun (bp : Site.beacon_prefix) ->
            Prefix.equal bp.Site.prefix prefix)
          site.Site.prefixes
      then Some site.Site.site_id
      else None)
    outcome.sites

let propagation_samples outcome ~role =
  let wanted =
    match role with
    | `Anchor -> outcome.anchors
    | `Oscillating -> outcome.oscillating
  in
  let samples =
    List.filter_map
      (fun (r : Dump.record) ->
        let prefix = Update.prefix r.Dump.update in
        if Prefix.Set.mem prefix wanted then
          match Update.aggregator r.Dump.update with
          | Some { sent_at; valid = true; _ } ->
              let delta = r.Dump.export_at -. sent_at in
              (* Propagation measurement, not damping: skip held-back
                 re-advertisements. *)
              if delta >= 0.0 && delta < 300.0 then Some delta else None
          | Some _ | None -> None
        else None)
      outcome.records
  in
  Array.of_list samples

(* stream_epochs: a closed loop with one client over a streaming ([obs=])
   campaign served by the always-on service and its HTTP plane.

   Setup runs one verify-world campaign, writes its labeled paths as the
   observation spool, starts the service (1 worker domain) and the HTTP
   server, runs the cold epoch 1 through POST /submit, and runs one
   discarded warm epoch.  Each unit appends the next re-observation slice
   (paths already in the spool, so the number of unique paths U stays
   flat while the observation count N grows), re-submits the spec (a warm
   epoch) and ends once GET /status shows the new epoch done with the
   right observation count and the following GET /estimates serves that
   generation's estimate rows.  ([/estimates] rows carry no epoch field,
   so the epoch and count are read from [/status].)  The simulator is
   bypassed: core/mcmc do nearly all the work. *)

open Because_bgp
module Sc = Because_scenario
module Svc = Because_service.Service
module Spec = Because_service.Spec
module Query = Because_service.Query
module Stream = Because_service.Stream
module Server = Because_http.Server
module Tel = Because_telemetry.Registry
module Snap = Because_telemetry.Snapshot

let nominal_unit_s = 0.55

(* Every run streams re-observations of the verify world (seed 42); the
   workload seed draws the slices and the spec's sampler seed.  A run
   holds [sessions] sessions with the same seed, each with its own set-up,
   so unit k of every session runs over the same spool. *)
let verify_world = 42
let sessions = 3
let slice = 24
let probe_every = 4
let poll_s = 0.005
let unit_timeout_s = 60.0
let id = "stream"

let line_of (path, rfd) =
  String.concat " "
    ((if rfd then "rfd" else "clean")
     :: List.map (fun a -> string_of_int (Asn.to_int a)) path)

let append_lines file lines =
  Out_channel.with_open_gen
    [ Open_wronly; Open_append; Open_creat; Open_binary ]
    0o644 file
    (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

type session = {
  svc : Svc.t;
  server : Server.t;
  conn : Pb.conn;
  spec : Spec.t;
  spool : string;
  obs : (Asn.t list * bool) array;  (** The campaign's labeled paths. *)
  mutable n_obs : int;               (** Observations now in the spool. *)
  mutable epoch : int;
  slices : Random.State.t;  (** Draws each slice's re-observations. *)
  ases : int;                        (** Estimate rows per epoch. *)
}

type epoch_result = {
  ok : bool;
  wall : float;
  status_rtts : float list;
  estimates_rtt : float;
  gate_sweeps : int;
  submit_s : float;
  append_s : float;
  n_obs : int;
  t_start : int64;
  t_end : int64;
  mutable queue_wait_s : float;
}

let status_fields doc =
  match Pb.status_line doc ~id with
  | None -> None
  | Some l ->
      let healthy = Pb.find_sub l "\"health\": \"healthy\"" 0 >= 0 in
      let done_ =
        healthy
        || Pb.find_sub l "\"health\": \"degraded\"" 0 >= 0
        || Pb.find_sub l "\"health\": \"insufficient\"" 0 >= 0
      in
      Some
        ( done_,
          healthy,
          Option.value ~default:0 (Pb.int_field l "\"epoch\""),
          Option.value ~default:0 (Pb.int_field l "\"observations\""),
          Option.value ~default:0 (Pb.int_field l "\"gate_sweeps\"") )

(* Submit the spec and wait for epoch [s.epoch + 1] over [s.n_obs]
   observations; [append] is the time the caller spent growing the
   spool, [t_start] when it began. *)
let run_epoch s ~t_start ~append_s =
  let expected_epoch = s.epoch + 1 in
  let t_sub = Pb.now_ns () in
  let r = Pb.request s.conn ~body:(Spec.to_line s.spec) "POST" "/submit" in
  let submit_s = Pb.secs t_sub (Pb.now_ns ()) in
  let failure status_rtts =
    let t_end = Pb.now_ns () in
    { ok = false; wall = Pb.secs t_start t_end; status_rtts;
      estimates_rtt = 0.0; gate_sweeps = 0; submit_s; append_s;
      n_obs = s.n_obs; t_start; t_end; queue_wait_s = 0.0 }
  in
  if r.Pb.status <> 202 then begin
    Pb.log "stream_epochs: submit refused with %d" r.Pb.status;
    failure []
  end
  else begin
    let give_up = Int64.add t_start (Int64.of_float (unit_timeout_s *. 1e9)) in
    let rtts = ref [] in
    let rec poll () =
      let t0 = Pb.now_ns () in
      let r = Pb.request s.conn "GET" "/status" in
      rtts := Pb.secs t0 (Pb.now_ns ()) :: !rtts;
      match status_fields r.Pb.body with
      | Some (true, healthy, e, n, gate) when e = expected_epoch ->
          Some (healthy && n = s.n_obs, Pb.generation r, gate)
      | _ ->
          if Pb.now_ns () > give_up then None
          else begin
            Thread.delay poll_s;
            poll ()
          end
    in
    match poll () with
    | None ->
        Pb.log "stream_epochs: epoch %d timed out" expected_epoch;
        failure !rtts
    | Some (status_ok, status_gen, gate) ->
        let t0 = Pb.now_ns () in
        let e = Pb.request s.conn "GET" "/estimates" in
        let t_end = Pb.now_ns () in
        let rows = Pb.count_sub e.Pb.body (Printf.sprintf "\"campaign\": \"%s\"" id) in
        let fresh =
          match (Pb.generation e, status_gen) with
          | Some g, Some sg -> g >= sg
          | _ -> false
        in
        let ok =
          status_ok && e.Pb.status = 200 && fresh && rows = s.ases
        in
        if not ok then
          Pb.log "stream_epochs: epoch %d check failed (status %b, rows %d/%d)"
            expected_epoch status_ok rows s.ases;
        s.epoch <- expected_epoch;
        { ok; wall = Pb.secs t_start t_end; status_rtts = !rtts;
          estimates_rtt = Pb.secs t0 t_end; gate_sweeps = gate; submit_s;
          append_s; n_obs = s.n_obs; t_start; t_end; queue_wait_s = 0.0 }
  end

(* One unit: append the next slice of re-observations, then run the warm
   epoch over the grown spool. *)
let unit_ s =
  let t_start = Pb.now_ns () in
  let n = Array.length s.obs in
  let lines =
    List.init slice (fun _ -> line_of s.obs.(Random.State.int s.slices n))
  in
  append_lines s.spool lines;
  s.n_obs <- s.n_obs + slice;
  let append_s = Pb.secs t_start (Pb.now_ns ()) in
  run_epoch s ~t_start ~append_s

let close s =
  Pb.close s.conn;
  Server.stop s.server;
  Svc.stop_when_idle s.svc;
  ignore (Svc.join s.svc)

(* Setup: everything before the first timed unit — the verify-world
   campaign that produces the observations, the spool, service and HTTP
   start, the cold epoch 1 and one discarded warm epoch. *)
let setup ~state ~seed ~name ~reg =
  let root = Pb.fresh_dir state name in
  let world = Sc.World.build (Campaign_verify.world_params verify_world) in
  let o = Sc.Campaign.run world Campaign_verify.params in
  let obs = Array.of_list (Sc.Campaign.observations o) in
  if Array.length obs = 0 then failwith "stream_epochs: campaign labeled nothing";
  let spool = Filename.concat (Sys.getcwd ()) (Filename.concat root "obs.spool") in
  append_lines spool (List.map line_of (Array.to_list obs));
  let svc =
    Svc.create
      { (Svc.default_config ~state_dir:(Filename.concat root "svc")) with
        Svc.jobs = 1; campaign_jobs = 1; telemetry = reg }
  in
  Svc.start svc;
  let server = Server.start ~threads:2 ~port:0 (Query.router svc) in
  let conn = Pb.connect (Server.port server) in
  let spec =
    { (Spec.default ~id) with
      Spec.seed = Pb.derive seed "stream" 0; samples = 500; burn_in = 250; chains = 1;
      obs = Some spool }
  in
  let ases =
    Asn.Set.cardinal
      (Array.fold_left
         (fun acc (p, _) -> List.fold_left (fun a x -> Asn.Set.add x a) acc p)
         Asn.Set.empty obs)
  in
  let s =
    { svc; server; conn; spec; spool; obs; n_obs = Array.length obs;
      epoch = 0; slices = Pb.rng seed "slices"; ases }
  in
  let cold = run_epoch s ~t_start:(Pb.now_ns ()) ~append_s:0.0 in
  let warm = unit_ s in
  if not (cold.ok && warm.ok) then failwith "stream_epochs: setup epochs failed";
  s

type session_result = {
  session : session;
  setup_s : float;
  results : epoch_result list;
  cpus : float list;
  writes : (int * int) list;     (** Durable writes and bytes per unit. *)
  base : Snap.t;                 (** Registry at the start of the units. *)
}

(* One full set-up, then [n_units] units.  Host probes run before and
   after the set-up, after every [probe_every] units and after the last
   one, while the service is idle.  Closes the session. *)
let run_session ~host ~state ~seed ~n_units ~reg ~tag =
  Host.probe host;
  Gc.full_major ();
  let t0 = Pb.now_ns () in
  let s = setup ~state ~seed ~name:tag ~reg in
  let t1 = Pb.now_ns () in
  Host.probe host;
  ignore (Layers.take_written ());
  let base = Tel.snapshot reg in
  let wait_total () =
    match Snap.hist (Tel.snapshot reg) "service.queue_wait_s" with
    | Some h -> h.Snap.sum
    | None -> 0.0
  in
  (* A run that overruns three times its nominal budget stops early. *)
  let deadline =
    Int64.add (Pb.now_ns ())
      (Int64.of_float (float_of_int n_units *. nominal_unit_s *. 3.0 *. 1e9))
  in
  let rec go k acc =
    if k >= n_units || Pb.now_ns () >= deadline then List.rev acc
    else begin
      Gc.full_major ();
      let c0 = Pb.cpu_s () in
      let w0 = wait_total () in
      let r = unit_ s in
      let cpu = Pb.cpu_s () -. c0 in
      r.queue_wait_s <- wait_total () -. w0;
      if (k + 1) mod probe_every = 0 then Host.probe host;
      let acc = (r, cpu, Layers.take_written ()) :: acc in
      (* A failed epoch leaves the stream in an unknown state: stop. *)
      if r.ok then go (k + 1) acc else List.rev acc
    end
  in
  let units = go 0 [] in
  if List.length units mod probe_every <> 0 then Host.probe host;
  close s;
  { session = s; setup_s = Pb.secs t0 t1;
    results = List.map (fun (r, _, _) -> r) units;
    cpus = List.map (fun (_, c, _) -> c) units;
    writes = List.map (fun (_, _, w) -> w) units; base }

let failures results = List.length (List.filter (fun r -> not r.ok) results)

let run ~seed ~seconds ~trace ~state =
  let n_units =
    max 2 (int_of_float (seconds /. (nominal_unit_s *. float_of_int sessions)))
  in
  let host = Host.create () in
  if not trace then begin
    let rs =
      List.init sessions (fun i ->
          run_session ~host ~state ~seed ~n_units ~reg:Tel.disabled
            ~tag:(Printf.sprintf "stream-%d" i))
    in
    let all = List.concat_map (fun r -> r.results) rs in
    let attempted = List.length all and failed = failures all in
    let raw_latency = Pb.median (List.map (fun u -> u.wall) all) in
    Pb.log "stream_epochs: raw latency p50 %.3f s, mean probe %.3f s"
      raw_latency (Host.probe_s host);
    (* Times in reference seconds (host.ml). *)
    let k = Host.scale host ~cpu:false and k_cpu = Host.scale host ~cpu:true in
    Pb.emit ~correct:(failed = 0) ~attempted ~failed
      [ Pb.m "setup_s" "s" (k *. Pb.median (List.map (fun r -> r.setup_s) rs));
        Pb.m "latency_p50_s" "s" (k *. raw_latency);
        Pb.m "cpu_p50_s" "s"
          (k_cpu *. Pb.median (List.concat_map (fun r -> r.cpus) rs));
        Pb.m "peak_rss_mb" "MB" (Pb.peak_rss_mb ());
        Pb.m "ok_pct" "%"
          (100.0 *. float_of_int (attempted - failed)
          /. float_of_int (max 1 attempted)) ]
  end
  else begin
    (* The traced session sits between two untraced reference sessions
       with the same seed, hence the same slices: unit k of each session
       runs over the same spool.  The overhead is the median over k of
       traced / mean(references) - 1, which cancels drift and
       which-session-runs-first effects. *)
    Layers.install_write_counter ();
    let reference tag =
      run_session ~host ~state ~seed ~n_units ~reg:Tel.disabled ~tag
    in
    let ref1 = reference "stream-ref1" in
    let reg = Tel.create () in
    let tr = run_session ~host ~state ~seed ~n_units ~reg ~tag:"stream" in
    let snap = Tel.snapshot reg in
    let ref2 = reference "stream-ref2" in
    let results = tr.results in
    let in_window (r : epoch_result) (sp : Snap.span) =
      sp.Snap.start_ns >= r.t_start && sp.Snap.start_ns <= r.t_end
    in
    let total r pred =
      List.fold_left
        (fun acc (sp : Snap.span) ->
          if in_window r sp && pred sp.Snap.name then acc +. Layers.span_s sp
          else acc)
        0.0 snap.Snap.spans
    in
    let units =
      List.map
        (fun r ->
          let rows = Layers.new_rows () in
          let mh = total r (String.starts_with ~prefix:"infer.MH.chain")
          and hmc = total r (String.starts_with ~prefix:"infer.HMC.chain") in
          Layers.add rows "stream.append_s" r.append_s;
          Layers.add rows "http.submit_s" r.submit_s;
          Layers.add rows "infer.mh_s" mh;
          Layers.add rows "infer.hmc_s" hmc;
          Layers.add rows "infer.other_s"
            (total r (String.equal "stream.infer") -. mh -. hmc);
          Layers.add rows "http.poll_s" r.estimates_rtt;
          { Layers.wall = r.wall; rows })
        results
    in
    (* Auxiliary layer costs: the service's own parse and tomography calls
       replayed on the final spool, outside any unit. *)
    let t0 = Pb.now_ns () in
    let observations =
      match Stream.parse_observations tr.session.spool with
      | Ok o -> o
      | Error e -> failwith e
    in
    let parse_s = Pb.secs t0 (Pb.now_ns ()) in
    let t0 = Pb.now_ns () in
    ignore (Because.Tomography.of_observations observations);
    let tomo_s = Pb.secs t0 (Pb.now_ns ()) in
    let n = List.length observations in
    let u = List.length (List.sort_uniq compare (List.map fst observations)) in
    let per_unit name =
      float_of_int (Layers.counter snap name - Layers.counter tr.base name)
      /. float_of_int (max 1 (List.length results))
    in
    let p50 f = Pb.median (List.map f results) in
    let overheads =
      results
      |> List.mapi (fun k r ->
             match (List.nth_opt ref1.results k, List.nth_opt ref2.results k) with
             | Some a, Some b -> Some (100.0 *. ((2.0 *. r.wall /. (a.wall +. b.wall)) -. 1.0))
             | _ -> None)
      |> List.filter_map Fun.id
    in
    let all = results @ ref1.results @ ref2.results in
    let attempted = List.length all and failed = failures all in
    let values =
      Layers.decomposition units
      @ [ ("stream.parse_s", parse_s);
          ("stream.obs_n", Pb.mean (List.map (fun r -> float_of_int r.n_obs) results));
          ("tomography.build_s", tomo_s);
          ("tomography.paths_n", float_of_int n);
          ("tomography.paths_u", float_of_int u);
          ("tomography.u_over_n", float_of_int u /. float_of_int (max 1 n));
          ("infer.sweeps", per_unit "mcmc.sweeps");
          ("infer.grad_evals", per_unit "mcmc.hmc.grad_evals");
          ("infer.gate_sweeps", p50 (fun r -> float_of_int r.gate_sweeps));
          ("service.queue_wait_p50_s", p50 (fun r -> r.queue_wait_s));
          ("recover.writes", Pb.mean (List.map (fun (w, _) -> float_of_int w) tr.writes));
          ("recover.bytes_written",
           Pb.mean (List.map (fun (_, b) -> float_of_int b) tr.writes));
          ("http.status_p50_us",
           1e6 *. Pb.median (List.concat_map (fun r -> r.status_rtts) results));
          ("http.estimates_p50_us", 1e6 *. p50 (fun r -> r.estimates_rtt));
          ("query.estimates_render_ms", 1e3 *. p50 (fun r -> r.estimates_rtt));
          ("trace_overhead_pct", Pb.median overheads);
          ("host.probe_s", Host.probe_s host);
          ("raw.setup_s", Pb.median (List.map (fun r -> r.setup_s) [ ref1; tr; ref2 ]));
          ("raw.latency_p50_s",
           Pb.median (List.map (fun u -> u.wall) (ref1.results @ ref2.results)));
          ("raw.cpu_p50_s", Pb.median (ref1.cpus @ ref2.cpus)) ]
    in
    Pb.emit ~correct:(failed = 0) ~attempted ~failed (Layers.metrics values)
  end

(* The per-layer metric table every traced run reports, and the per-unit
   row accumulator the traced runs fill in.

   A traced unit is decomposed into {e sum rows}: wall time measured around
   a call into one layer's public entry point (or read from a span the
   library already records), one row per layer.  The rows plus
   [unattributed_s] equal the unit's wall time exactly, per unit and hence
   in the per-unit means reported here.  Every other metric is a count or
   an auxiliary measurement and is not part of the sum. *)

(* (name, unit) in report order.  A metric that does not apply to a
   workload (no simulation on stream_epochs, no HTTP on campaign_verify)
   reads 0 there. *)
let table =
  [ (* scenario / topology, beacon, sim *)
    ("topology.build_s", "s");
    ("beacon.stimulus_s", "s");
    ("sim.replay_s", "s");
    ("sim.events", "count");
    ("sim.events_per_s", "1/s");
    ("sim.minor_mw", "Mwords");
    (* collector, labeling *)
    ("collect.dump_s", "s");
    ("collect.records", "count");
    ("label.label_s", "s");
    ("label.paths", "count");
    ("label.rfd_paths", "count");
    (* core / mcmc *)
    ("tomography.build_s", "s");
    ("tomography.paths_n", "count");
    ("tomography.paths_u", "count");
    ("tomography.u_over_n", "ratio");
    ("infer.mh_s", "s");
    ("infer.hmc_s", "s");
    ("infer.other_s", "s");
    ("infer.sweeps", "count");
    ("infer.grad_evals", "count");
    ("infer.gate_sweeps", "count");
    ("infer.minor_mw", "Mwords");
    ("categorize.s", "s");
    ("heuristics.s", "s");
    (* service / stream / recover *)
    ("stream.append_s", "s");
    ("stream.parse_s", "s");
    ("stream.obs_n", "count");
    ("service.queue_wait_p50_s", "s");
    ("recover.bytes_written", "bytes");
    ("recover.writes", "count");
    (* http / query *)
    ("http.submit_s", "s");
    ("http.poll_s", "s");
    ("http.status_p50_us", "us");
    ("http.estimates_p50_us", "us");
    ("query.estimates_render_ms", "ms");
    (* decomposition check *)
    ("trace.unit_wall_s", "s");
    ("unattributed_s", "s");
    ("unattributed_pct", "%");
    ("trace_overhead_pct", "%");
    (* host speed and the untraced end-to-end times before normalisation *)
    ("host.probe_s", "s");
    ("raw.setup_s", "s");
    ("raw.latency_p50_s", "s");
    ("raw.cpu_p50_s", "s") ]

(* The rows that partition a traced unit's wall time. *)
let sum_rows =
  [ "beacon.stimulus_s"; "sim.replay_s"; "collect.dump_s"; "label.label_s";
    "tomography.build_s"; "infer.mh_s"; "infer.hmc_s"; "infer.other_s";
    "categorize.s"; "heuristics.s"; "stream.append_s"; "http.submit_s";
    "http.poll_s" ]

(* One traced unit: its wall time and the sum rows measured inside it. *)
type unit_rows = { wall : float; rows : (string, float) Hashtbl.t }

let new_rows () = Hashtbl.create 16

let add rows name v =
  Hashtbl.replace rows name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt rows name))

let timed rows name f =
  let t0 = Pb.now_ns () in
  let r = f () in
  add rows name (Pb.secs t0 (Pb.now_ns ()));
  r

(* Per-unit means of every sum row the units measured, the mean wall and
   the remainder. *)
let decomposition units =
  let n = float_of_int (max 1 (List.length units)) in
  let mean_of name =
    List.fold_left
      (fun acc u ->
        acc +. Option.value ~default:0.0 (Hashtbl.find_opt u.rows name))
      0.0 units
    /. n
  in
  let wall = List.fold_left (fun acc u -> acc +. u.wall) 0.0 units /. n in
  let measured r = List.exists (fun u -> Hashtbl.mem u.rows r) units in
  let rows =
    List.filter_map
      (fun r -> if measured r then Some (r, mean_of r) else None)
      sum_rows
  in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 rows in
  let unattributed = wall -. attributed in
  rows
  @ [ ("trace.unit_wall_s", wall);
      ("unattributed_s", unattributed);
      ("unattributed_pct",
       if wall > 0.0 then 100.0 *. unattributed /. wall else 0.0) ]

(* The traced result line: every metric of [table], 0 where [values] has
   none. *)
let metrics values =
  List.map
    (fun (name, unit_) ->
      Pb.m name unit_
        (Option.value ~default:0.0 (List.assoc_opt name values)))
    table

(* Telemetry snapshot helpers for spans the library already records. *)
module Snap = Because_telemetry.Snapshot

let span_s (sp : Snap.span) = Int64.to_float sp.Snap.dur_ns /. 1e9

(* Per-sampler chain spans: [infer.MH.chain<i>] / [infer.HMC.chain<i>]. *)
let sampler_total (s : Snap.t) ~sampler =
  let prefix = "infer." ^ sampler ^ ".chain" in
  List.fold_left
    (fun acc (sp : Snap.span) ->
      if String.starts_with ~prefix sp.Snap.name then acc +. span_s sp else acc)
    0.0 s.Snap.spans

let counter s name = Option.value ~default:0 (Snap.counter s name)

(* Durable-write accounting for the recover layer: every atomic write the
   service makes goes through [Because_recover.Io]; a passthrough hook
   records the destinations so a traced run can total their sizes. *)
let written = ref [] and written_mu = Mutex.create ()

let install_write_counter () =
  Because_recover.Io.inject (fun op ->
      (match op with
      | Because_recover.Io.Write path ->
          Mutex.protect written_mu (fun () -> written := path :: !written)
      | Because_recover.Io.Rename _ -> ());
      None)

let take_written () =
  let paths = Mutex.protect written_mu (fun () ->
      let p = !written in
      written := [];
      p)
  in
  List.fold_left
    (fun (n, bytes) p ->
      match Unix.stat p with
      | st -> (n + 1, bytes + st.Unix.st_size)
      | exception Unix.Unix_error _ -> (n + 1, bytes))
    (0, 0) paths

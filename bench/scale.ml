(* Internet-scale sweep: events/second and peak RSS versus AS count.

   Each size runs in a FRESH CHILD PROCESS (spawned via [Unix.create_process]
   on our own executable with the hidden [--scale-child] argv mode) so that

   - peak RSS (VmHWM from /proc/self/status) measures that one world and not
     whatever the earlier, smaller sizes grew the heap to, and
   - no domains are live across the spawn (fork with running domains is a
     hazard under OCaml 5).

   The child builds a world scaled towards the target AS count
   ([World.scale_params], Tier-1 clique fixed), records a short churn-heavy
   campaign script, replays it through [Sharded.run] with in-memory
   collector feeds, and prints one RESULT line the parent parses.

   Sizes: quick {100, 1000}; full {100, 1000, 5000, 10000}; override with
   BECAUSE_SCALE_ASES=100,1000,5000.  Rows are appended to BENCH_sim.json
   (kind "scale") so the sim and scale sections can both contribute to the
   same artifact; CI's scale-smoke job guards the 1000-AS events/s and the
   5000-AS peak RSS against bench/scale_baseline.json. *)

module Sc = Because_scenario
module Ctx = Bench_context
module Script = Because_sim.Script
module Sharded = Because_sim.Sharded

(* Base world: 8 Tier-1s + 80 transit + 360 stub (+7 Beacon origins).  The
   scale factor stretches the transit/stub/vantage axes towards the target
   total.  Vantage hosts are capped near the real collector ecosystem's
   size (~400 full-feed sessions) — feeds are the output channel, not the
   thing whose scaling is under test. *)
let world_for ~ases =
  let base = Sc.World.default_params in
  let fixed = base.Sc.World.topology.Because_topology.Generate.n_tier1 + 7 in
  let edge =
    base.Sc.World.topology.Because_topology.Generate.n_transit
    + base.Sc.World.topology.Because_topology.Generate.n_stub
  in
  let factor = float_of_int (max 1 (ases - fixed)) /. float_of_int edge in
  let p = Sc.World.scale_params base ~factor in
  let p = { p with Sc.World.n_vantage_hosts = min p.Sc.World.n_vantage_hosts 416 } in
  Sc.World.build p

(* A short, churn-dominated stimulus: one Burst–Break cycle with 10-minute
   phases plus [churn] background /24s flapping a couple of times each.
   Event volume grows with world size (every update floods the graph), so
   the phases are kept short enough that 10k ASs finishes in tens of
   seconds while still processing millions of events. *)
let child_params =
  {
    (Sc.Campaign.default_params ~update_interval:60.0) with
    Sc.Campaign.cycles = 1;
    lead_in = 120.0;
    burst_duration = 600.0;
    break_duration = 600.0;
    anchor_period = 600.0;
    background_mean_gap = 600.0;
  }

let hwm_kb () =
  (* VmHWM — peak resident set — from /proc/self/status; 0 where the file
     does not exist (non-Linux), keeping the row shape portable. *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let peak = ref 0 in
          (try
             while true do
               let line = input_line ic in
               try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> peak := kb)
               with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
             done
           with End_of_file -> ());
          !peak)

(* ------------------------------------------------------------------ *)
(* Child: measure one size, print a RESULT line, exit.                  *)

let child = function
  | [ ases; churn ] ->
      let ases = int_of_string ases and churn = int_of_string churn in
      let world = world_for ~ases in
      let graph = Sc.World.graph world in
      let n_ases = List.length (Because_topology.Graph.ases graph) in
      let n_links = List.length (Because_topology.Graph.links graph) in
      let { Sc.Campaign.script; campaign_end; _ } =
        Sc.Campaign.stimulus world
          { child_params with Sc.Campaign.background_prefixes = churn }
          ~intervals:[ child_params.Sc.Campaign.update_interval ]
          ~churn_rng:(Sc.World.fresh_rng world ~salt:4242)
      in
      Printf.printf "child: %d ASs, %d links, %d prefixes, end %.0f s\n%!"
        n_ases n_links (Script.n_prefixes script) campaign_end;
      let t0 = Unix.gettimeofday () in
      let r =
        Sharded.run ~jobs:1
          ~configs:(Sc.World.router_configs world)
          ~delay:(Sc.World.delay world)
          ~monitored:(Sc.World.monitored world)
          ~until:campaign_end script
      in
      let seconds = Unix.gettimeofday () -. t0 in
      Printf.printf
        "RESULT ases=%d links=%d prefixes=%d events=%d seconds=%.3f \
         hwm_kb=%d\n%!"
        n_ases n_links
        (Script.n_prefixes script)
        r.Sharded.events seconds (hwm_kb ())
  | _ ->
      prerr_endline "usage: --scale-child ASES CHURN";
      exit 2

(* ------------------------------------------------------------------ *)
(* Parent: spawn one child per size, parse rows, write JSON.            *)

type row = {
  ases : int;
  links : int;
  prefixes : int;
  events : int;
  seconds : float;
  events_per_sec : float;
  peak_rss_kb : int;
}

let run_child ~ases ~churn =
  let r, w = Unix.pipe () in
  let argv =
    [|
      Sys.executable_name; "--scale-child"; string_of_int ases;
      string_of_int churn;
    |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, List.rev !lines)

let parse_result lines =
  List.find_map
    (fun line ->
      match
        Scanf.sscanf line
          "RESULT ases=%d links=%d prefixes=%d events=%d seconds=%f \
           hwm_kb=%d"
          (fun ases links prefixes events seconds hwm_kb ->
            {
              ases;
              links;
              prefixes;
              events;
              seconds;
              events_per_sec =
                (if seconds > 0.0 then float_of_int events /. seconds else 0.0);
              peak_rss_kb = hwm_kb;
            })
      with
      | row -> Some row
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)
    lines

let sizes () =
  match Sys.getenv_opt "BECAUSE_SCALE_ASES" with
  | Some s ->
      List.filter_map
        (fun tok -> int_of_string_opt (String.trim tok))
        (String.split_on_char ',' s)
  | None -> if Ctx.quick then [ 100; 1000 ] else [ 100; 1000; 5000; 10000 ]

let row_json { ases; links; prefixes; events; seconds; events_per_sec; peak_rss_kb } =
  Printf.sprintf
    "    { \"name\": \"scale (ases=%d)\", \"kind\": \"scale\", \"ases\": %d, \
     \"links\": %d, \"prefixes\": %d, \"events\": %d, \"seconds\": %.3f, \
     \"events_per_sec\": %.1f, \"peak_rss_kb\": %d }"
    ases ases links prefixes events seconds events_per_sec peak_rss_kb

(* Splice scale rows into BENCH_sim.json: the sim section owns the document
   when both run ([--only scale] in CI runs alone and writes a fresh one).
   The writer ends every document with "  ]\n}\n", which is what the splice
   keys on. *)
let append_json path rows =
  let payload = String.concat ",\n" (List.map row_json rows) in
  let fresh () =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\n  \"schema\": \"because-bench-sim/1\",\n  \"quick\": %b,\n  \
           \"results\": [\n%s\n  ]\n}\n"
          Ctx.quick payload)
  in
  if not (Sys.file_exists path) then fresh ()
  else begin
    let ic = open_in_bin path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let suffix = "  ]\n}\n" in
    let slen = String.length suffix and clen = String.length content in
    if clen > slen && String.sub content (clen - slen) slen = suffix then begin
      let head = String.sub content 0 (clen - slen) in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc head;
          output_string oc ",\n";
          output_string oc payload;
          output_string oc "\n";
          output_string oc suffix)
    end
    else fresh ()
  end

let run () =
  Ctx.section "Internet-scale sweep (events/s and peak RSS vs AS count)";
  let churn = if Ctx.quick then 128 else 1000 in
  let rows =
    List.filter_map
      (fun ases ->
        Printf.printf "[%d ASs, %d churn prefixes ...]\n%!" ases churn;
        match run_child ~ases ~churn with
        | Unix.WEXITED 0, lines -> (
            List.iter print_endline
              (List.filter (fun l -> not (String.length l > 6 && String.sub l 0 6 = "RESULT")) lines);
            match parse_result lines with
            | Some row ->
                Printf.printf
                  "ases=%d: %d events in %.2f s (%.0f events/s), peak RSS %d \
                   MB\n%!"
                  row.ases row.events row.seconds row.events_per_sec
                  (row.peak_rss_kb / 1024);
                Some row
            | None ->
                Printf.printf "ases=%d: no RESULT line from child\n%!" ases;
                None)
        | status, _ ->
            Printf.printf "ases=%d: child failed (%s)\n%!" ases
              (match status with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
              | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s);
            None)
      (sizes ())
  in
  (match rows with
  | first :: _ :: _ ->
      let last = List.nth rows (List.length rows - 1) in
      if first.peak_rss_kb > 0 && last.peak_rss_kb > 0 then
        Printf.printf "%-32s %11.2fx over %dx ASs\n" "peak RSS growth"
          (float_of_int last.peak_rss_kb /. float_of_int first.peak_rss_kb)
          (last.ases / max 1 first.ases)
  | _ -> ());
  if rows <> [] then begin
    append_json "BENCH_sim.json" rows;
    Printf.printf "appended %d scale rows to BENCH_sim.json\n"
      (List.length rows)
  end

(* Host-speed normalisation.

   The benchmark runs on a few vCPUs of a shared host.  Co-tenants there
   slow this process down for tens of seconds to minutes at a time: on a
   2-vCPU KVM guest one verify-world campaign took 1.25 s in a quiet spell
   and 2.5 s in a busy one a minute later, with no steal time accounted,
   so the process CPU time moved with it.  A run-level median cannot
   remove a slowdown that lasts longer than the run.

   So the benchmark measures the host's current speed with a probe, a
   fixed piece of work defined here and nowhere in [lib/], so no change
   to the program moves it.  The probe runs in its own process
   ([main.exe --workload probe]), between the timed items of a run, and
   leaves the workload's heap and peak RSS alone.  The run's times are
   scaled by [reference_s] over the mean probe time of the run; the
   end-to-end times are then in reference seconds: what the items would
   have taken on a host where the probe takes [reference_s].

   Co-tenant load comes in bursts shorter than a probe, so a single
   probe is a noisy reading of the host's speed.  The mean over the run's
   probes, spread evenly through it, tracked the units as well as the
   probes next to each unit did on campaigns, and better on epochs
   (perfbench/README.md). *)

(* The probe's wall time on a quiet 2-vCPU x86-64 KVM guest. *)
let reference_s = 0.25

(* ----------------------------------------------------------------- probe *)

module IM = Map.Make (Int)

(* Pointer chasing over a balanced tree of 100k nodes (larger than L2),
   then streaming float passes over two 8 MB arrays and random reads from
   them: the allocation-heavy tree walks of the simulator and the float
   loops of the samplers. *)
let work () =
  let st = Random.State.make [| 2 |] in
  let m = ref IM.empty in
  for _ = 1 to 100_000 do
    m := IM.add (Random.State.bits st) (Random.State.bits st) !m
  done;
  let acc = ref 0 in
  for _ = 1 to 150_000 do
    match IM.find_first_opt (fun k -> k >= Random.State.bits st) !m with
    | Some (_, v) -> acc := !acc lxor v
    | None -> ()
  done;
  let n = 1 lsl 20 in
  let a = Array.init n float_of_int and b = Array.make n 1.0 in
  for _ = 1 to 8 do
    for i = 0 to n - 1 do
      b.(i) <- (b.(i) *. 0.999) +. exp (-.a.(i) /. 1e6)
    done
  done;
  let s = ref 0.0 in
  for _ = 1 to 500_000 do
    s := !s +. b.(Random.State.int st n)
  done;
  !acc + int_of_float !s

(* The body of [main.exe --workload probe]: run [work] once and print
   its wall and CPU seconds. *)
let main () =
  Gc.full_major ();
  let c0 = Pb.cpu_s () and t0 = Pb.now_ns () in
  ignore (Sys.opaque_identity (work ()));
  let wall = Pb.secs t0 (Pb.now_ns ()) and cpu = Pb.cpu_s () -. c0 in
  Printf.printf "%.9f %.9f\n%!" wall cpu

(* --------------------------------------------------------------- samples *)

type sample = { wall : float; cpu : float }

(* Probe samples of one run, newest first. *)
type t = { mutable samples : sample list }

let create () = { samples = [] }

(* Run the probe in a child process and record its times. *)
let probe h =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--workload"; "probe" |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l ->
      Scanf.sscanf l "%f %f" (fun wall cpu ->
          h.samples <- { wall; cpu } :: h.samples)
  | _ -> failwith "host probe failed"

let mean_probe h ~cpu =
  if h.samples = [] then failwith "host: no probe ran";
  Pb.mean (List.map (fun s -> if cpu then s.cpu else s.wall) h.samples)

(* Mean probe wall time of the run. *)
let probe_s h = mean_probe h ~cpu:false

(* The factor that turns the run's measured seconds into reference
   seconds.  [~cpu:true] scales CPU times by the probes' CPU times. *)
let scale h ~cpu = reference_s /. mean_probe h ~cpu

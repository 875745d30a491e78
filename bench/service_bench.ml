(* Service scheduler benchmarks: sustained campaign throughput, queue wait
   latency, and the wall-clock cost of a drain-and-restart cycle versus an
   uninterrupted run.  Writes BENCH_service.json (CI artifact) so the
   scheduler's overhead is tracked the same way as the kernels. *)

module Ctx = Bench_context
module Svc = Because_service.Service
module Sspec = Because_service.Spec
module Store = Because_service.Store

type row = { name : string; value : float; unit_ : string }

let fresh_dir () =
  let f = Filename.temp_file "because-bench-service" ".dir" in
  Sys.remove f;
  f

let spec i =
  let base = Sspec.default ~id:(Printf.sprintf "bench-%02d" i) in
  let base = { base with Sspec.seed = 100 + i; faults = "realistic" } in
  if Ctx.quick then
    { base with Sspec.transit = 6; stub = 14; vantage_hosts = 5;
      samples = 80; burn_in = 40 }
  else base

let n_campaigns = if Ctx.quick then 6 else 12
let jobs = 2

let submit_all svc n =
  for i = 1 to n do
    match Svc.submit svc (spec i) with
    | Ok _ -> ()
    | Error r ->
        failwith ("bench submit: " ^ Svc.reason_to_string r)
  done

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

let run () =
  Ctx.section "service scheduler";
  (* Sustained throughput: n campaigns through the bounded queue over a
     worker pool, timed end to end. *)
  let dir = fresh_dir () in
  let svc =
    Svc.create
      { (Svc.default_config ~state_dir:dir) with Svc.jobs; limit = n_campaigns }
  in
  submit_all svc n_campaigns;
  let t0 = Unix.gettimeofday () in
  (match Svc.run_until_idle svc with
  | Svc.Completed -> ()
  | _ -> failwith "bench service run did not complete");
  let cold_s = Unix.gettimeofday () -. t0 in
  let waits =
    Store.entries (Svc.store svc)
    |> List.map (fun (e : Store.entry) -> e.Store.queue_wait_s)
    |> Array.of_list
  in
  Array.sort compare waits;
  let p50 = percentile waits 0.50 and p99 = percentile waits 0.99 in
  let per_hour = float_of_int n_campaigns /. cold_s *. 3600.0 in
  Printf.printf "%-36s %10.1f campaigns/h (%d in %.1f s, jobs=%d)\n"
    "sustained throughput" per_hour n_campaigns cold_s jobs;
  Printf.printf "%-36s %10.3f s\n" "queue wait p50" p50;
  Printf.printf "%-36s %10.3f s\n" "queue wait p99" p99;
  (* Drain-and-restart: interrupt the same workload mid-flight, warm-start
     a second service on the surviving state, and compare total wall-clock
     against the uninterrupted run above. *)
  let dir2 = fresh_dir () in
  let svc2 =
    Svc.create
      { (Svc.default_config ~state_dir:dir2) with Svc.jobs;
        limit = n_campaigns }
  in
  submit_all svc2 n_campaigns;
  let t1 = Unix.gettimeofday () in
  Svc.start svc2;
  Unix.sleepf (cold_s /. 4.0);
  Svc.drain svc2;
  ignore (Svc.join svc2);
  Svc.reset_drain svc2;
  let svc3 =
    Svc.load
      { (Svc.default_config ~state_dir:dir2) with Svc.jobs;
        limit = n_campaigns }
  in
  (match Svc.run_until_idle svc3 with
  | Svc.Completed -> ()
  | _ -> failwith "bench warm start did not complete");
  let interrupted_s = Unix.gettimeofday () -. t1 in
  let overhead = (interrupted_s /. cold_s -. 1.0) *. 100.0 in
  Printf.printf "%-36s %10.1f s (cold %.1f s, %+.1f%%)\n"
    "drain + warm restart" interrupted_s cold_s overhead;
  let rows =
    [ { name = "campaigns_per_hour"; value = per_hour; unit_ = "1/h" };
      { name = "queue_wait_p50"; value = p50; unit_ = "s" };
      { name = "queue_wait_p99"; value = p99; unit_ = "s" };
      { name = "cold_run"; value = cold_s; unit_ = "s" };
      { name = "drain_restart_run"; value = interrupted_s; unit_ = "s" };
      { name = "drain_restart_overhead"; value = overhead; unit_ = "%" } ]
  in
  Ctx.write_json ~schema:"because-bench-service/1" "BENCH_service.json"
    (List.map
       (fun { name; value; unit_ } -> Ctx.value_row ~name ~value ~unit_)
       rows);
  Printf.printf "wrote BENCH_service.json (%d rows)\n" (List.length rows)

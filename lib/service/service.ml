open Because_bgp
module Sc = Because_scenario
module Supervise = Because_recover.Supervise
module Checkpoint = Because_recover.Checkpoint
module Codec = Because_recover.Codec
module Io = Because_recover.Io
module Tel = Because_telemetry.Registry
module Manifest = Because_telemetry.Manifest

type config = {
  state_dir : string;
  limit : int;
  jobs : int;
  campaign_jobs : int;
  max_attempts : int;
  every_sweeps : int option;
  chain_deadline_s : float option;
  sweep_budget : int option;
  telemetry : Because_telemetry.Registry.t;
  kill_after_saves : int option;
  chaos : (id:string -> attempt:int -> int option) option;
}

let default_config ~state_dir =
  { state_dir; limit = 16; jobs = 1; campaign_jobs = 1; max_attempts = 3;
    every_sweeps = Some 25;
    chain_deadline_s = None; sweep_budget = None; telemetry = Tel.disabled;
    kill_after_saves = None; chaos = None }

type verdict = Completed | Drained | Killed

type reason =
  | Queue_full of { limit : int }
  | Duplicate of { id : string }
  | Draining
  | Invalid of string

let reason_to_string = function
  | Queue_full { limit } ->
      Printf.sprintf "queue full (limit %d); resubmit later" limit
  | Duplicate { id } -> Printf.sprintf "duplicate campaign id %S" id
  | Draining -> "service is draining; not accepting new campaigns"
  | Invalid msg -> "invalid spec: " ^ msg

type metrics = {
  m_submitted : Tel.Counter.handle;
  m_rejected : Tel.Counter.handle;
  m_completed : Tel.Counter.handle;
  m_retries : Tel.Counter.handle;
  m_interrupted : Tel.Counter.handle;
  m_depth : Tel.Gauge.handle;
  m_running : Tel.Gauge.handle;
  m_queue_wait : Tel.Histogram.handle;
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  cond : Condition.t;
  store : Store.t;
  qstore : Checkpoint.t;
  mutable workers : unit Domain.t list;
  mutable stop_idle : bool;
  mutable drain_requested : bool;
  mutable killed : bool;
  kill_count : int Atomic.t;
  kill_tripped : bool Atomic.t;
  kill_switch : (unit -> bool) option Atomic.t;
  mutable notes : string list;  (* newest first; reversed on read *)
  m : metrics;
  generation : int Atomic.t;
      (* Bumped on every observable store/queue mutation; the HTTP query
         plane renders each document at most once per generation and
         serves the cached bytes lock-free in between. *)
  mutable last_status : string option;
  mutable last_metrics : string option;
      (* The bytes [write_status] last wrote to each status file, so an
         unchanged document is not rewritten.  Touched only by the one
         thread that writes status files (the serve loop, then [join]). *)
}

(* ---------------------------------------------------------------- paths *)

let queue_dir cfg = Filename.concat cfg.state_dir "queue.d"
let campaigns_dir cfg = Filename.concat cfg.state_dir "campaigns"
let reports_dir cfg = Filename.concat cfg.state_dir "reports"
let campaign_dir cfg ~id = Filename.concat (campaigns_dir cfg) id

let report_path t ~id =
  Filename.concat (reports_dir t.cfg) (id ^ ".report")

let status_path t = Filename.concat t.cfg.state_dir "status.json"
let metrics_path t = Filename.concat t.cfg.state_dir "metrics.prom"

(* ------------------------------------------------------- queue snapshot *)

let queue_fingerprint = "because-service-queue/1"
let queue_key = "queue"

(* Version 2 appends the streaming fields (epoch, warm, gate, observation
   count) to each entry.  Version 1 snapshots, without them, still decode
   (as epoch 1, cold, no observations) so older state directories load. *)
let encode_queue t =
  let w = Codec.writer () in
  Codec.int w 2;
  Codec.list w
    (fun w (e : Store.entry) ->
      Codec.string w (Spec.to_line e.Store.spec);
      Codec.int w e.Store.seq;
      let tag, reasons =
        match e.Store.health with
        | Store.Done Supervise.Healthy -> (1, [])
        | Store.Done (Supervise.Degraded rs) -> (2, rs)
        | Store.Done (Supervise.Insufficient rs) -> (3, rs)
        | Store.Queued | Store.Running | Store.Interrupted -> (0, [])
      in
      Codec.u8 w tag;
      Codec.list w Codec.string reasons;
      Codec.list w
        (fun w (est : Store.estimate) ->
          Codec.int w (Asn.to_int est.Store.asn);
          Codec.float w est.Store.mean;
          Codec.float w est.Store.lo;
          Codec.float w est.Store.hi;
          Codec.int w est.Store.category;
          Codec.bool w est.Store.damping)
        (Array.to_list e.Store.estimates);
      Codec.int w e.Store.epoch;
      Codec.bool w e.Store.warm;
      Codec.option w Codec.int e.Store.gate_sweeps;
      Codec.int w e.Store.obs_count)
    (Store.entries t.store);
  Codec.contents w

type decoded = {
  d_spec : Spec.t;
  d_seq : int;
  d_done : Supervise.status option;  (* None = pending *)
  d_estimates : Store.estimate array;
  d_epoch : int;
  d_warm : bool;
  d_gate_sweeps : int option;
  d_obs_count : int;
}

let decode_queue payload =
  let r = Codec.reader payload in
  let version = Codec.read_int r in
  if version <> 1 && version <> 2 then
    raise (Codec.Malformed (Printf.sprintf "queue snapshot v%d" version));
  let entries =
    Codec.read_list r (fun r ->
        let line = Codec.read_string r in
        let seq = Codec.read_int r in
        let tag = Codec.read_u8 r in
        let reasons = Codec.read_list r Codec.read_string in
        let estimates =
          Codec.read_list r (fun r ->
              let asn = Codec.valid "ASN" Asn.of_int (Codec.read_int r) in
              let mean = Codec.read_float r in
              let lo = Codec.read_float r in
              let hi = Codec.read_float r in
              let category = Codec.read_int r in
              let damping = Codec.read_bool r in
              { Store.asn; mean; lo; hi; category; damping })
          |> Array.of_list
        in
        let d_epoch, d_warm, d_gate_sweeps, d_obs_count =
          if version >= 2 then
            let epoch = Codec.read_int r in
            let warm = Codec.read_bool r in
            let gate = Codec.read_option r Codec.read_int in
            let obs = Codec.read_int r in
            (epoch, warm, gate, obs)
          else (1, false, None, 0)
        in
        let d_done =
          match tag with
          | 0 -> None
          | 1 -> Some Supervise.Healthy
          | 2 -> Some (Supervise.Degraded reasons)
          | 3 -> Some (Supervise.Insufficient reasons)
          | n -> raise (Codec.Malformed (Printf.sprintf "health tag %d" n))
        in
        match Spec.of_line line with
        | Ok d_spec ->
            { d_spec; d_seq = seq; d_done; d_estimates = estimates;
              d_epoch; d_warm; d_gate_sweeps; d_obs_count }
        | Error e -> raise (Codec.Malformed ("spec: " ^ e)))
  in
  Codec.expect_end r;
  let ids = List.map (fun d -> d.d_spec.Spec.id) entries in
  if List.length (List.sort_uniq String.compare ids) <> List.length ids then
    raise (Codec.Malformed "duplicate campaign id");
  entries

(* ----------------------------------------------------------- internals *)

(* All the helpers below assume t.mutex is held by the caller. *)

let note t msg = t.notes <- msg :: t.notes

(* A durable write that still fails after [Io.retry]'s tries is a note:
   raised, it would kill the worker domain or the submitting caller with
   the mutex held.  The state stays in memory either way, and the next
   queue write carries the whole queue again. *)
let persist_queue t =
  try Checkpoint.save t.qstore ~key:queue_key (encode_queue t)
  with Sys_error e -> note t ("queue: snapshot not written: " ^ e)

(* Reports are rewritten in place: no reader watches the file (the HTTP
   route renders from memory), and the queue snapshot, written after it,
   is the durable record a torn or missing report is rebuilt from at
   load.  [Sys_error] when the write still fails after [Io.retry]. *)
let write_report t (entry : Store.entry) =
  let path = report_path t ~id:entry.Store.spec.Spec.id in
  let report = Store.report entry in
  Io.retry (fun () -> Io.overwrite path report)

let note_recovery t ~id recovery =
  List.iter
    (fun w -> note t (id ^ ": " ^ w))
    (Sc.Recovery.warnings recovery)

let set_gauges t =
  if Tel.is_enabled t.cfg.telemetry then begin
    Tel.Gauge.set t.m.m_depth (float_of_int (Store.depth t.store));
    Tel.Gauge.set t.m.m_running (float_of_int (Store.running t.store))
  end

(* ------------------------------------------------------------- create *)

let make cfg =
  if cfg.jobs < 1 then invalid_arg "Service: jobs must be >= 1";
  if cfg.max_attempts < 1 then invalid_arg "Service: max_attempts must be >= 1";
  if cfg.limit < 1 then invalid_arg "Service: limit must be >= 1";
  Io.mkdir_p cfg.state_dir;
  Io.mkdir_p (campaigns_dir cfg);
  Io.mkdir_p (reports_dir cfg);
  let qstore =
    Checkpoint.open_ ~dir:(queue_dir cfg) ~fingerprint:queue_fingerprint ()
  in
  let reg = cfg.telemetry in
  let m =
    { m_submitted = Tel.Counter.v reg "service.submitted";
      m_rejected = Tel.Counter.v reg "service.rejected";
      m_completed = Tel.Counter.v reg "service.completed";
      m_retries = Tel.Counter.v reg "service.retries";
      m_interrupted = Tel.Counter.v reg "service.interrupted";
      m_depth = Tel.Gauge.v reg "service.queue_depth";
      m_running = Tel.Gauge.v reg "service.running";
      m_queue_wait = Tel.Histogram.v reg "service.queue_wait_s" }
  in
  let t =
    { cfg; mutex = Mutex.create (); cond = Condition.create ();
      store = Store.create (); qstore; workers = [];
      stop_idle = false; drain_requested = false; killed = false;
      kill_count = Atomic.make 0; kill_tripped = Atomic.make false;
      kill_switch = Atomic.make None; notes = []; m;
      generation = Atomic.make 0; last_status = None; last_metrics = None }
  in
  (match cfg.kill_after_saves with
  | None -> ()
  | Some n ->
      Atomic.set t.kill_switch
        (Some
           (fun () ->
             Atomic.get t.kill_tripped
             ||
             if Atomic.fetch_and_add t.kill_count 1 >= n then begin
               Atomic.set t.kill_tripped true;
               true
             end
             else false)));
  t

let create cfg =
  Io.rm_rf (queue_dir cfg);
  Io.rm_rf (campaigns_dir cfg);
  Io.rm_rf (reports_dir cfg);
  let t = make cfg in
  (try Sys.remove (status_path t) with Sys_error _ -> ());
  (try Sys.remove (metrics_path t) with Sys_error _ -> ());
  t

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* Reports are pure functions of the stored result, so one that is
   missing, unreadable, torn by a crash mid-write or stale is rebuilt
   rather than mourned.  A rebuild that still fails is a warning: the
   HTTP route serves the report from memory either way. *)
let repair_report t (entry : Store.entry) =
  let id = entry.Store.spec.Spec.id in
  if read_file (report_path t ~id) <> Some (Store.report entry) then
    try write_report t entry
    with Sys_error e -> note t (id ^ ": report not rebuilt: " ^ e)

let load cfg =
  let t = make cfg in
  let payload = Checkpoint.load t.qstore ~key:queue_key in
  (* After the load: its quarantines and fallbacks are warnings too. *)
  List.iter (fun w -> note t ("queue: " ^ w)) (Checkpoint.warnings t.qstore);
  (match payload with
  | None -> ()
  | Some payload -> (
      match decode_queue payload with
      | exception Codec.Malformed e ->
          note t ("queue: snapshot discarded (malformed: " ^ e ^ ")")
      | decoded ->
          List.iter
            (fun d ->
              let entry = Store.add t.store d.d_spec ~seq:d.d_seq in
              entry.Store.epoch <- d.d_epoch;
              entry.Store.warm <- d.d_warm;
              entry.Store.gate_sweeps <- d.d_gate_sweeps;
              entry.Store.obs_count <- d.d_obs_count;
              (* A requeued streaming epoch warm-starts from these: they
                 are still the previous epoch's. *)
              entry.Store.estimates <- d.d_estimates;
              match d.d_done with
              | Some status ->
                  entry.Store.health <- Store.Done status;
                  repair_report t entry
              | None -> entry.Store.health <- Store.Interrupted)
            decoded));
  t

let config t = t.cfg
let store t = t.store
let generation t = Atomic.get t.generation
let bump t = Atomic.incr t.generation

(* ------------------------------------------------------------- submit *)

let draining t = t.drain_requested || Supervise.draining ()
let killed t = t.killed

(* Admission is a query over the store, after [submit]'s draining and
   validity checks: a duplicate id is rejected before a full queue, and an
   admitted campaign gets one past the highest sequence number in the
   store, finished campaigns included, so a warm start never reuses one. *)
let admit t spec =
  let id = spec.Spec.id in
  match Store.find t.store ~id with
  | Some entry
    when entry.Store.spec.Spec.obs <> None
         && Spec.equal entry.Store.spec spec
         && (match entry.Store.health with Store.Done _ -> true | _ -> false)
    ->
      (* Re-submitting a completed streaming spec is not a duplicate: its
         spool has (presumably) grown, so it re-enters the queue as the
         next epoch at its original sequence number. *)
      entry.Store.health <- Store.Queued;
      entry.Store.epoch <- entry.Store.epoch + 1;
      Ok entry
  | Some _ -> Error (Duplicate { id })
  | None when Store.depth t.store >= t.cfg.limit ->
      Error (Queue_full { limit = t.cfg.limit })
  | None -> Ok (Store.add t.store spec ~seq:(Store.next_seq t.store))

let submit t spec =
  Mutex.lock t.mutex;
  let result =
    if t.killed || draining t then Error Draining
    else
      match Spec.validate spec with
      | Error e -> Error (Invalid e)
      | Ok spec -> (
          match admit t spec with
          | Error _ as e -> e
          | Ok entry ->
              entry.Store.submitted_ns <- Some (Monotonic_clock.now ());
              persist_queue t;
              Ok entry.Store.seq)
  in
  (match result with
  | Ok _ ->
      bump t;
      if Tel.is_enabled t.cfg.telemetry then Tel.Counter.incr t.m.m_submitted
  | Error _ ->
      if Tel.is_enabled t.cfg.telemetry then Tel.Counter.incr t.m.m_rejected);
  set_gauges t;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  result

let pending t = Mutex.protect t.mutex (fun () -> Store.depth t.store)
let running t = Mutex.protect t.mutex (fun () -> Store.running t.store)

(* -------------------------------------------------------- worker loop *)

let claim t =
  Mutex.lock t.mutex;
  let rec go () =
    (* The global drain flag is checked too: a signal handler can only
       safely set that flag (one atomic store), not take our mutex. *)
    if t.killed || draining t then None
    else
      match Store.next_pending t.store with
      | Some entry ->
          entry.Store.health <- Store.Running;
          bump t;
          (match entry.Store.submitted_ns with
          | Some ns ->
              let wait =
                Int64.to_float (Int64.sub (Monotonic_clock.now ()) ns) *. 1e-9
              in
              entry.Store.queue_wait_s <- wait;
              if Tel.is_enabled t.cfg.telemetry then
                Tel.Histogram.observe t.m.m_queue_wait wait
          | None -> ());
          set_gauges t;
          Some entry
      | None ->
          if t.stop_idle then None
          else begin
            Condition.wait t.cond t.mutex;
            go ()
          end
  in
  let r = go () in
  Mutex.unlock t.mutex;
  r

let finish t (entry : Store.entry) ~status ~estimates recovery =
  Mutex.protect t.mutex @@ fun () ->
  let id = entry.Store.spec.Spec.id in
  entry.Store.estimates <- estimates;
  entry.Store.health <- Store.Done status;
  Option.iter (note_recovery t ~id) recovery;
  (try write_report t entry
   with Sys_error e -> note t (id ^ ": report not written: " ^ e));
  persist_queue t;
  bump t;
  if Tel.is_enabled t.cfg.telemetry then Tel.Counter.incr t.m.m_completed;
  set_gauges t;
  Condition.broadcast t.cond

let interrupted t (entry : Store.entry) ~persist ~kill recovery =
  Mutex.lock t.mutex;
  if kill then t.killed <- true;
  entry.Store.health <- Store.Interrupted;
  Option.iter (note_recovery t ~id:entry.Store.spec.Spec.id) recovery;
  (* A chaos kill leaves the queue file exactly as the last completed save
     did — a real SIGKILL would not have flushed anything either. *)
  if persist then persist_queue t;
  bump t;
  if Tel.is_enabled t.cfg.telemetry then Tel.Counter.incr t.m.m_interrupted;
  set_gauges t;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

(* The supervised attempt loop shared by both entry kinds.  [body t entry n]
   runs attempt [n] and either settles the entry itself ([Ok ()]) or
   reports a failed attempt as [Error (e, recovery)]: the failure is noted
   (with the attempt's recovery warnings, if it had a store), and the entry
   gives up as [Insufficient] once the retry budget is spent, is
   interrupted when the service is draining, or sleeps
   min(1 s, 10 ms * 2^(n-1)) and tries again. *)
let run_attempts t (entry : Store.entry) body =
  let id = entry.Store.spec.Spec.id in
  let rec attempt n =
    Mutex.lock t.mutex;
    entry.Store.attempts <- n;
    Mutex.unlock t.mutex;
    match body t entry n with
    | Ok () -> ()
    | Error (e, recovery) ->
        let msg = Printexc.to_string e in
        Mutex.lock t.mutex;
        note t (Printf.sprintf "%s: attempt %d/%d failed: %s" id n
                  t.cfg.max_attempts msg);
        Option.iter (note_recovery t ~id) recovery;
        Mutex.unlock t.mutex;
        if n >= t.cfg.max_attempts then
          finish t entry
            ~status:
              (Supervise.Insufficient
                 [ Printf.sprintf
                     "retry budget exhausted after %d attempts (last: %s)"
                     t.cfg.max_attempts msg ])
            ~estimates:[||] None
        else if t.drain_requested then
          interrupted t entry ~persist:true ~kill:false None
        else begin
          if Tel.is_enabled t.cfg.telemetry then
            Tel.Counter.incr t.m.m_retries;
          Unix.sleepf (Float.min 1.0 (Float.ldexp 0.01 (n - 1)));
          attempt (n + 1)
        end
  in
  attempt 1

let stream_attempt t (entry : Store.entry) _n =
  let budget =
    { Supervise.deadline_s = t.cfg.chain_deadline_s;
      max_sweeps = t.cfg.sweep_budget }
  in
  (* Until [finish] replaces them, the entry's estimates are the previous
     epoch's: the one durable record of the posterior this epoch
     warm-starts from.  Epoch 1 is always cold. *)
  let epoch, prior =
    Mutex.protect t.mutex (fun () ->
        ( entry.Store.epoch,
          if entry.Store.epoch > 1 then entry.Store.estimates else [||] ))
  in
  match
    Stream.run ~spec:entry.Store.spec ~epoch ~prior
      ~telemetry:t.cfg.telemetry ~supervise:budget ~jobs:t.cfg.campaign_jobs
      ()
  with
  | Ok outcome ->
      Mutex.lock t.mutex;
      entry.Store.warm <- Array.length prior > 0;
      entry.Store.gate_sweeps <- outcome.Stream.gate_sweeps;
      entry.Store.obs_count <- outcome.Stream.obs_count;
      Mutex.unlock t.mutex;
      Ok
        (finish t entry ~status:outcome.Stream.status
           ~estimates:outcome.Stream.estimates None)
  | Error msg ->
      (* A missing or malformed spool is a property of the epoch, not a
         transient fault: retrying would re-read the same bytes. *)
      Ok
        (finish t entry ~status:(Supervise.Insufficient [ msg ])
           ~estimates:[||] None)
  | exception Supervise.Drained ->
      Ok (interrupted t entry ~persist:true ~kill:false None)
  | exception e -> Error (e, None)

let campaign_attempt t (entry : Store.entry) n =
  let id = entry.Store.spec.Spec.id in
  (* This attempt's chaos budget, or-ed with the service-wide switch. *)
  let kill_switch =
    let service = Atomic.get t.kill_switch in
    match Option.bind t.cfg.chaos (fun f -> f ~id ~attempt:n) with
    | None -> service
    | Some limit ->
        let saves = Atomic.make 0 in
        Some
          (fun () ->
            Atomic.fetch_and_add saves 1 >= limit
            || Option.fold ~none:false ~some:(fun s -> s ()) service)
  in
  (* resume:true always: a fresh campaign has no snapshots to read, and
     everything else (prior generation, prior attempt, drained run) must
     continue rather than start over. *)
  let recovery =
    Sc.Recovery.create ~dir:(campaign_dir t.cfg ~id) ~resume:true
      ?every_sweeps:t.cfg.every_sweeps ?kill_switch ()
  in
  let world = Spec.world entry.Store.spec in
  let params =
    Spec.params entry.Store.spec ~world ~jobs:t.cfg.campaign_jobs
  in
  let params =
    { params with
      Sc.Campaign.telemetry = t.cfg.telemetry;
      infer_config =
        { params.Sc.Campaign.infer_config with
          Because.Infer.supervise =
            { Supervise.deadline_s = t.cfg.chain_deadline_s;
              max_sweeps = t.cfg.sweep_budget } } }
  in
  match Sc.Campaign.run ~recovery world params with
  | outcome ->
      Ok
        (finish t entry ~status:outcome.Sc.Campaign.status
           ~estimates:(Store.estimates_of_outcome outcome)
           (Some recovery))
  | exception Supervise.Drained ->
      Ok (interrupted t entry ~persist:true ~kill:false (Some recovery))
  | exception Sc.Recovery.Killed when Atomic.get t.kill_tripped ->
      Ok (interrupted t entry ~persist:false ~kill:true (Some recovery))
  | exception e -> Error (e, Some recovery)

let run_entry t (entry : Store.entry) =
  run_attempts t entry
    (if entry.Store.spec.Spec.obs <> None then stream_attempt
     else campaign_attempt)

let rec worker_loop t =
  match claim t with
  | None -> ()
  | Some entry ->
      run_entry t entry;
      worker_loop t

(* ---------------------------------------------------------- lifecycle *)

let start t =
  Mutex.lock t.mutex;
  if t.workers <> [] then begin
    Mutex.unlock t.mutex;
    invalid_arg "Service.start: workers already running"
  end;
  if t.killed then begin
    Mutex.unlock t.mutex;
    invalid_arg "Service.start: service was killed; load a fresh one"
  end;
  t.stop_idle <- false;
  Mutex.unlock t.mutex;
  let workers =
    List.init t.cfg.jobs (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  Mutex.lock t.mutex;
  t.workers <- workers;
  Mutex.unlock t.mutex

let stop_when_idle t =
  Mutex.lock t.mutex;
  t.stop_idle <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let drain t =
  Mutex.lock t.mutex;
  t.drain_requested <- true;
  bump t;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  Supervise.request_drain ()

let rollup t =
  Mutex.lock t.mutex;
  let r = Store.rollup t.store in
  Mutex.unlock t.mutex;
  r

(* Write the status document [data] to [path] unless [last], what the
   last write left there, equals it and not [force]; returns what the file
   now holds.  Outside tools read status documents live, so they are
   replaced by rename, under the same retry as every durable write. *)
let write_changed ~force last path data =
  if force || last <> Some data then
    Io.retry (fun () ->
        Io.write_file_atomic ~dir:(Filename.dirname path) ~file:path data);
  Some data

let write_status_files t ~force =
  Mutex.lock t.mutex;
  let json =
    Store.to_json t.store ~draining:t.drain_requested ~limit:t.cfg.limit
  in
  let prom =
    if Tel.is_enabled t.cfg.telemetry then begin
      set_gauges t;
      Some
        (Because_telemetry.Export.to_prometheus (Tel.snapshot t.cfg.telemetry))
    end
    else None
  in
  Mutex.unlock t.mutex;
  t.last_status <- write_changed ~force t.last_status (status_path t) json;
  Option.iter
    (fun prom ->
      t.last_metrics <-
        write_changed ~force t.last_metrics (metrics_path t) prom)
    prom

let write_status t = write_status_files t ~force:false

(* ------------------------------------------------- query-plane snapshots *)

(* Renderers for the HTTP query plane.  Each takes the mutex for the
   duration of one render; the query layer calls them at most once per
   generation and serves cached bytes in between, so the service mutex
   never sits on the request hot path. *)

let status_json t =
  Mutex.lock t.mutex;
  let json =
    Store.to_json t.store ~draining:t.drain_requested ~limit:t.cfg.limit
  in
  Mutex.unlock t.mutex;
  json

let matrix_text t =
  Mutex.lock t.mutex;
  let m = Store.matrix t.store in
  Mutex.unlock t.mutex;
  m

let metrics_prom t =
  Mutex.lock t.mutex;
  set_gauges t;
  Mutex.unlock t.mutex;
  Because_telemetry.Export.to_prometheus (Tel.snapshot t.cfg.telemetry)

let report_for t ~id =
  Mutex.lock t.mutex;
  let r =
    match Store.find t.store ~id with
    | None -> `Unknown
    | Some entry -> (
        match entry.Store.health with
        | Store.Done _ -> `Done (Store.report entry)
        | Store.Queued | Store.Running | Store.Interrupted -> `Pending)
  in
  Mutex.unlock t.mutex;
  r

let estimates_snapshot t =
  Mutex.lock t.mutex;
  let rows =
    List.concat_map
      (fun (e : Store.entry) ->
        Array.to_list e.Store.estimates
        |> List.map (fun (est : Store.estimate) ->
               ( Asn.to_int est.Store.asn,
                 Printf.sprintf
                   "{ \"campaign\": \"%s\", \"asn\": \"%s\", \"mean\": \
                    %.17g, \"lo\": %.17g, \"hi\": %.17g, \"category\": %d, \
                    \"damping\": %b }"
                   (Manifest.json_escape e.Store.spec.Spec.id)
                   (Asn.to_string est.Store.asn)
                   est.Store.mean est.Store.lo est.Store.hi
                   est.Store.category est.Store.damping )))
      (Store.entries t.store)
  in
  Mutex.unlock t.mutex;
  rows

let join t =
  let workers =
    Mutex.protect t.mutex (fun () ->
        let w = t.workers in
        t.workers <- [];
        w)
  in
  List.iter Domain.join workers;
  let verdict =
    if t.killed then Killed
    else if draining t then Drained
    else Completed
  in
  write_status_files t ~force:true;
  verdict

let run_until_idle t =
  start t;
  stop_when_idle t;
  join t

let reset_drain t =
  Mutex.lock t.mutex;
  if t.workers <> [] then begin
    Mutex.unlock t.mutex;
    invalid_arg "Service.reset_drain: join the workers first"
  end;
  t.drain_requested <- false;
  bump t;
  Mutex.unlock t.mutex;
  Supervise.clear_drain ()

let exit_code t verdict =
  match verdict with
  | Completed -> Supervise.exit_code (rollup t)
  | Drained | Killed -> 5

let warnings t =
  Mutex.lock t.mutex;
  let ns = List.rev t.notes in
  Mutex.unlock t.mutex;
  ns

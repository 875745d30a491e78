(* Chaos harness: epoch-chain compaction under corruption, and the
   whole-service soak — campaigns completing under injected disk faults
   while HTTP clients hammer the query plane through a socket-level
   fault proxy.

   The soak's contract is threefold: the final store state (reports and
   suspect matrix) is bit-for-bit identical to a fault-free run's; no
   response that completed its own framing is malformed (torn); and
   every worker joins — stop/join returning IS the leak check. *)

module Service = Because_service.Service
module Sspec = Because_service.Spec
module Store = Because_service.Store
module Query = Because_service.Query
module Epochs = Because_service.Epochs
module Seed = Because_recover.Seed
module Io = Because_recover.Io
module Supervise = Because_recover.Supervise
module Server = Because_http.Server
module Proxy = Because_http.Fault_proxy

let fresh_dir () =
  let f = Filename.temp_file "because-chaos" ".dir" in
  Sys.remove f;
  f

let read_file path = In_channel.with_open_bin path In_channel.input_all

let find_sub hay sub from =
  let n = String.length sub and m = String.length hay in
  let rec go i =
    if i + n > m then None
    else if String.sub hay i n = sub then Some i
    else go (i + 1)
  in
  go from

let with_drain_reset f =
  Fun.protect ~finally:(fun () -> Supervise.clear_drain ()) f

let submit_ok svc spec =
  match Service.submit svc spec with
  | Ok _ -> ()
  | Error r ->
      Alcotest.failf "submit %s: %s" spec.Sspec.id
        (Because_service.Service.reason_to_string r)

(* ------------------------------------------------------------------ *)
(* Epoch compaction: O(1) cold load over an arbitrarily long chain      *)

let mk_seed epoch =
  { Seed.epoch;
    gate_sweeps = (if epoch mod 2 = 0 then Some (100 + epoch) else None);
    means =
      [| (901, 0.875 +. (0.0001 *. float_of_int epoch)); (64512, 0.125) |] }

let seeds_equal (a : Seed.t) (b : Seed.t) =
  a.Seed.epoch = b.Seed.epoch
  && a.Seed.gate_sweeps = b.Seed.gate_sweeps
  && a.Seed.means = b.Seed.means

let test_epochs_compacted_cold_load () =
  let dir = fresh_dir () in
  let st = Epochs.open_ ~dir ~id:"long" in
  for e = 1 to 22 do
    Epochs.append st (mk_seed e)
  done;
  Alcotest.(check (list int)) "chain holds every epoch"
    (List.init 22 (fun i -> i + 1))
    (Epochs.chain st);
  (* Cold start: a fresh handle answers from the compacted seed without
     touching one chain snapshot — the O(1) acceptance check. *)
  let cold = Epochs.open_ ~dir ~id:"long" in
  (match Epochs.load cold with
  | Some s ->
      Alcotest.(check bool) "newest epoch" true (seeds_equal s (mk_seed 22))
  | None -> Alcotest.fail "cold load found nothing");
  Alcotest.(check int) "zero chain snapshots consulted" 0
    (Epochs.chain_loads cold);
  (* Pruning bounds the chain; the compacted seed is untouched. *)
  Epochs.compact st ~keep:4;
  Alcotest.(check (list int)) "pruned to newest 4" [ 19; 20; 21; 22 ]
    (Epochs.chain st);
  let cold2 = Epochs.open_ ~dir ~id:"long" in
  (match Epochs.load cold2 with
  | Some s -> Alcotest.(check int) "still newest" 22 s.Seed.epoch
  | None -> Alcotest.fail "load after compact");
  Alcotest.(check int) "still zero chain loads" 0 (Epochs.chain_loads cold2);
  (match Epochs.compact st ~keep:0 with
  | () -> Alcotest.fail "keep 0 accepted"
  | exception Invalid_argument _ -> ())

let corrupt_file path =
  let data = Bytes.of_string (read_file path) in
  let mid = Bytes.length data / 2 in
  Bytes.set data mid (Char.chr (Char.code (Bytes.get data mid) lxor 0xff));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc data)

let test_epochs_corrupt_compacted_falls_back () =
  let dir = fresh_dir () in
  let st = Epochs.open_ ~dir ~id:"fallback" in
  for e = 1 to 6 do
    Epochs.append st (mk_seed e)
  done;
  (* Flip a bit in the compacted snapshot AND its rotated fallback: the
     checkpoint layer must quarantine both and load must walk the chain
     instead — the same bytes, one level down. *)
  corrupt_file (Filename.concat dir "compacted.ck");
  corrupt_file (Filename.concat dir "compacted.prev.ck");
  let cold = Epochs.open_ ~dir ~id:"fallback" in
  (match Epochs.load cold with
  | Some s ->
      Alcotest.(check bool) "chain serves identical newest seed" true
        (seeds_equal s (mk_seed 6))
  | None -> Alcotest.fail "fallback load found nothing");
  Alcotest.(check bool) "chain was consulted" true
    (Epochs.chain_loads cold >= 1);
  Alcotest.(check bool) "quarantine warning recorded" true
    (Epochs.warnings cold <> []);
  (* The corrupt snapshots were quarantined (renamed aside for
     post-mortem), not deleted. *)
  Alcotest.(check bool) "corrupt file kept for post-mortem" true
    (Array.exists
       (fun f -> find_sub f ".corrupt-" 0 <> None)
       (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Streaming service integration: epochs fold as they complete          *)

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines)

let stream_obs =
  [ "rfd 64512 901"; "rfd 64513 901"; "clean 64512 64513";
    "clean 64513 64514"; "clean 64512 64514" ]

let test_service_epoch_compaction () =
  with_drain_reset @@ fun () ->
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let obs_path = Filename.concat dir "paths.obs" in
  write_lines obs_path stream_obs;
  let spec =
    { (Sspec.default ~id:"streamc") with
      Sspec.seed = 11;
      samples = 120;
      burn_in = 60;
      chains = 2;
      obs = Some obs_path }
  in
  let cfg =
    { (Service.default_config ~state_dir:dir) with
      Service.retry_backoff_s = 0.0;
      compact_every = 2 }
  in
  let svc = Service.create cfg in
  (* Four epochs: re-submitting a completed streaming spec starts the
     next one. *)
  for epoch = 1 to 4 do
    Out_channel.with_open_gen [ Open_append ] 0o644 obs_path (fun oc ->
        Out_channel.output_string oc "clean 64512 64514\n");
    submit_ok svc spec;
    match Service.run_until_idle svc with
    | Service.Completed -> ()
    | _ -> Alcotest.failf "epoch %d did not complete" epoch
  done;
  (match Store.find (Service.store svc) ~id:"streamc" with
  | Some e ->
      Alcotest.(check int) "reached epoch 4" 4 e.Store.epoch;
      Alcotest.(check bool) "warm-started" true e.Store.warm
  | None -> Alcotest.fail "campaign missing");
  (* The epoch store was compacted on the cadence: chain bounded at
     [compact_every], compacted seed answers a cold open in O(1). *)
  let epochs_dir =
    Filename.concat (Filename.concat dir "campaigns")
      (Filename.concat "streamc" "epochs.d")
  in
  let cold = Epochs.open_ ~dir:epochs_dir ~id:"streamc" in
  Alcotest.(check (list int)) "chain pruned to the cadence" [ 3; 4 ]
    (Epochs.chain cold);
  (match Epochs.load cold with
  | Some s -> Alcotest.(check int) "compacted seed is newest" 4 s.Seed.epoch
  | None -> Alcotest.fail "no compacted seed");
  Alcotest.(check int) "cold load bypassed the chain" 0
    (Epochs.chain_loads cold)

(* ------------------------------------------------------------------ *)
(* Response classification (torn vs truncated)                          *)

(* A response is TORN when it is complete by its own framing but
   malformed — more body bytes than Content-Length declared, or a
   non-HTTP preamble.  A fault-truncated response (reset mid-body) is
   expected chaos weather, not a server bug. *)
let classify raw =
  if raw = "" then `Empty
  else if not (String.length raw >= 5 && String.sub raw 0 5 = "HTTP/") then
    `Torn
  else
    match find_sub raw "\r\n\r\n" 0 with
    | None -> `Truncated
    | Some i -> (
        let body_off = i + 4 in
        let head = String.lowercase_ascii (String.sub raw 0 body_off) in
        let tag = "content-length:" in
        match find_sub head tag 0 with
        | None -> `Complete
        | Some j -> (
            let off = j + String.length tag in
            let stop =
              match String.index_from_opt head off '\r' with
              | Some k -> k
              | None -> String.length head
            in
            match
              int_of_string_opt (String.trim (String.sub head off (stop - off)))
            with
            | None -> `Complete
            | Some n ->
                let got = String.length raw - body_off in
                if got < n then `Truncated
                else if got > n then `Torn
                else `Complete))

let test_classifier_sanity () =
  Alcotest.(check bool) "well-formed is complete" true
    (classify "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" = `Complete);
  Alcotest.(check bool) "short body is truncated" true
    (classify "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nok" = `Truncated);
  Alcotest.(check bool) "overlong body is torn" true
    (classify "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nok" = `Torn);
  Alcotest.(check bool) "garbage preamble is torn" true
    (classify "garbage" = `Torn);
  Alcotest.(check bool) "headers cut short is truncated" true
    (classify "HTTP/1.1 200 OK\r\nContent-" = `Truncated)

(* ------------------------------------------------------------------ *)
(* The soak                                                             *)

let tiny_spec ?(seed = 42) ?(faults = "none") id =
  { (Sspec.default ~id) with
    Sspec.seed;
    transit = 6;
    stub = 14;
    vantage_hosts = 5;
    samples = 80;
    burn_in = 40;
    faults }

let soak_specs =
  [ tiny_spec ~seed:1 ~faults:"severe" "x1";
    tiny_spec ~seed:2 ~faults:"severe" "x2";
    tiny_spec ~seed:3 "x3" ]

let soak_cfg ~jobs ~dir =
  { (Service.default_config ~state_dir:dir) with
    Service.jobs;
    retry_backoff_s = 0.0 }

let reports svc specs =
  List.map
    (fun (s : Sspec.t) ->
      (s.Sspec.id, read_file (Service.report_path svc ~id:s.Sspec.id)))
    specs

(* Fault-free reference: matrix + reports, computed once per process. *)
let soak_reference =
  lazy
    (with_drain_reset @@ fun () ->
     let dir = fresh_dir () in
     let svc = Service.create (soak_cfg ~jobs:1 ~dir) in
     List.iter (submit_ok svc) soak_specs;
     (match Service.run_until_idle svc with
     | Service.Completed -> ()
     | _ -> Alcotest.fail "reference soak did not complete");
     (Store.matrix (Service.store svc), reports svc soak_specs))

let probe ~port ~path =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port)) with
      | exception Unix.Unix_error _ -> `Empty
      | () ->
          let req =
            "GET " ^ path
            ^ " HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n"
          in
          (try ignore (Unix.write_substring fd req 0 (String.length req))
           with Unix.Unix_error _ -> ());
          let buf = Buffer.create 512 in
          let chunk = Bytes.create 2048 in
          (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.0
           with Unix.Unix_error _ -> ());
          let rec drain () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
            | exception Unix.Unix_error _ -> ()
          in
          drain ();
          classify (Buffer.contents buf))

(* Transient disk faults, scheduled per target file: a given file's
   first write consult faults, its retry succeeds — never two faults in
   a row for the same target, whatever the domain interleaving, so the
   3-attempt budget always absorbs the storm without escalating to a
   campaign-level retry (which would show up as a diverged attempt
   count). *)
let transient_disk_faults table mu op =
  match op with
  | Io.Rename _ -> None
  | Io.Write f ->
      Mutex.protect mu (fun () ->
          let n = try Hashtbl.find table f with Not_found -> 0 in
          Hashtbl.replace table f (n + 1);
          if n mod 4 = 0 then
            Some (if n mod 8 = 0 then Io.Enospc else Io.Rename_fail)
          else None)

let run_soak ~qseed ~jobs =
  with_drain_reset @@ fun () ->
  let ref_matrix, ref_reports = Lazy.force soak_reference in
  let dir = fresh_dir () in
  let svc = Service.create (soak_cfg ~jobs ~dir) in
  List.iter (submit_ok svc) soak_specs;
  let srv = Server.start ~threads:2 ~port:0 (Query.router svc) in
  let proxy =
    Proxy.start ~seed:qseed ~upstream_port:(Server.port srv) ~port:0 ()
  in
  let torn = Atomic.make 0 in
  let served = Atomic.make 0 in
  let stop_traffic = Atomic.make false in
  let traffic =
    Thread.create
      (fun () ->
        let paths = [| "/status"; "/matrix"; "/metrics"; "/estimates" |] in
        let i = ref 0 in
        while not (Atomic.get stop_traffic) do
          (match
             probe ~port:(Proxy.port proxy) ~path:paths.(!i mod 4)
           with
          | `Torn -> Atomic.incr torn
          | `Complete -> Atomic.incr served
          | `Truncated | `Empty -> ());
          incr i;
          Thread.delay 0.01
        done)
      ()
  in
  let table = Hashtbl.create 64 and mu = Mutex.create () in
  let verdict =
    Fun.protect
      ~finally:(fun () ->
        Io.clear ();
        Atomic.set stop_traffic true;
        Thread.join traffic;
        (* A little parting storm straight at the server, then teardown:
           stop returning at all is the no-leaked-workers check. *)
        ignore (Proxy.flood ~conns:16 ~hold_s:0.05 ~port:(Server.port srv) ());
        Proxy.stop proxy;
        Server.stop srv)
      (fun () ->
        Io.inject (transient_disk_faults table mu);
        Service.run_until_idle svc)
  in
  (match verdict with
  | Service.Completed -> ()
  | _ -> Alcotest.fail "chaos soak did not complete");
  let got_matrix = Store.matrix (Service.store svc) in
  let ok_matrix = got_matrix = ref_matrix in
  let ok_reports = reports svc soak_specs = ref_reports in
  let ok_faults = Io.faults_injected () > 0 in
  if not ok_matrix then (
    Printf.eprintf "=== reference ===\n%s=== chaos ===\n%s%!" ref_matrix
      got_matrix;
    Alcotest.fail "matrix diverged under chaos");
  if not ok_reports then Alcotest.fail "reports diverged under chaos";
  if not ok_faults then Alcotest.fail "no disk faults were injected";
  if Atomic.get torn > 0 then
    Alcotest.failf "%d torn responses" (Atomic.get torn);
  true

let qcheck_chaos_soak =
  QCheck.Test.make ~name:"soak: chaos run matches fault-free run" ~count:1
    (* No shrinker: a shrink pass would rerun the whole soak per step. *)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1000))
    (fun qseed ->
      (* One serialized service, one multicore one: both must land on the
         reference state, whatever weather the seed picked. *)
      run_soak ~qseed ~jobs:1 && run_soak ~qseed:(qseed + 7) ~jobs:4)

(* Shed responses observed end to end carry the backpressure headers —
   asserted against the real server through real sockets. *)
let test_shed_headers_end_to_end () =
  let rt = Because_http.Router.create () in
  Because_http.Router.add rt ~meth:"GET" ~pattern:"/slow" (fun _ _ ->
      Thread.delay 0.4;
      Because_http.Response.text "done");
  let srv = Server.start ~threads:1 ~shed_watermark:1 ~port:0 rt in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  let opened =
    List.init 6 (fun _ ->
        let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
        let req = "GET /slow HTTP/1.1\r\nHost: h\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        fd)
  in
  let raws =
    List.map
      (fun fd ->
        let buf = Buffer.create 256 in
        let chunk = Bytes.create 1024 in
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.0
         with Unix.Unix_error _ -> ());
        let rec drain () =
          match Unix.read fd chunk 0 1024 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
          | exception Unix.Unix_error _ -> ()
        in
        drain ();
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Buffer.contents buf)
      opened
  in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i =
      i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
    in
    n = 0 || go 0
  in
  let sheds =
    List.filter (fun r -> contains " 503 " r) raws
  in
  Alcotest.(check bool) "overload produced sheds" true (sheds <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool) "Retry-After on every shed" true
        (contains "Retry-After:" r);
      Alcotest.(check bool) "X-Queue-Depth on every shed" true
        (contains "X-Queue-Depth:" r))
    sheds;
  (* Nothing was torn: every response that framed itself completed. *)
  List.iter
    (fun r ->
      match classify r with
      | `Torn -> Alcotest.fail "torn response under overload"
      | _ -> ())
    raws

let suite =
  ( "chaos",
    [
      Alcotest.test_case "epochs: compacted cold load is O(1)" `Quick
        test_epochs_compacted_cold_load;
      Alcotest.test_case "epochs: corrupt compacted falls back to chain"
        `Quick test_epochs_corrupt_compacted_falls_back;
      Alcotest.test_case "service: streaming epochs compact on cadence"
        `Slow test_service_epoch_compaction;
      Alcotest.test_case "torn/truncated classifier sanity" `Quick
        test_classifier_sanity;
      QCheck_alcotest.to_alcotest ~long:false qcheck_chaos_soak;
      Alcotest.test_case "shed responses carry backpressure headers" `Quick
        test_shed_headers_end_to_end;
    ] )

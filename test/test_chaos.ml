(* Chaos harness: the whole-service soak — campaigns completing under
   injected disk faults while HTTP clients hammer the query plane through
   a socket-level fault proxy.

   The soak's contract is threefold: the final store state (reports and
   suspect matrix) is bit-for-bit identical to a fault-free run's; no
   response that completed its own framing is malformed (torn); and
   every worker joins — stop/join returning IS the leak check. *)

module Service = Because_service.Service
module Sspec = Because_service.Spec
module Store = Because_service.Store
module Query = Because_service.Query
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
  { (Service.default_config ~state_dir:dir) with Service.jobs }

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
      Alcotest.test_case "torn/truncated classifier sanity" `Quick
        test_classifier_sanity;
      QCheck_alcotest.to_alcotest ~long:false qcheck_chaos_soak;
      Alcotest.test_case "shed responses carry backpressure headers" `Quick
        test_shed_headers_end_to_end;
    ] )

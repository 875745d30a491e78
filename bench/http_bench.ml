(* HTTP query-plane benchmarks: sustained request rate and tail latency of
   the snapshot-cached endpoints, measured over a keep-alive loopback
   connection, plus the sweeps-to-convergence saving of a warm-started
   streaming epoch versus a cold run of the same epoch.  Writes
   BENCH_http.json (CI artifact). *)

module Ctx = Bench_context
module Svc = Because_service.Service
module Sspec = Because_service.Spec
module Store = Because_service.Store
module Query = Because_service.Query
module Stream = Because_service.Stream
module Server = Because_http.Server
module Asn = Because_bgp.Asn

type row = { name : string; value : float; unit_ : string }

let fresh_dir () =
  let f = Filename.temp_file "because-bench-http" ".dir" in
  Sys.remove f;
  f

let requests_per_endpoint = if Ctx.quick then 2_000 else 20_000
let n_campaigns = 12
let estimates_per_campaign = 40

(* A store that looks like a long-lived service's: a dozen finished
   campaigns, each with a realistic estimate table, so /status and /matrix
   render documents of production size. *)
let populate svc =
  let store = Svc.store svc in
  for i = 0 to n_campaigns - 1 do
    let spec = Sspec.default ~id:(Printf.sprintf "done-%02d" i) in
    let e = Store.add store spec ~seq:i in
    e.Store.health <- Store.Done Because_recover.Supervise.Healthy;
    e.Store.estimates <-
      Array.init estimates_per_campaign (fun j ->
          let mean = float_of_int ((17 * (i + j)) mod 100) /. 100.0 in
          let category = 1 + int_of_float (mean *. 4.999) in
          {
            Store.asn = Asn.of_int (64500 + j);
            mean;
            lo = Float.max 0.0 (mean -. 0.05);
            hi = Float.min 1.0 (mean +. 0.05);
            category;
            damping = category >= 4;
          })
  done

let write_all fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off < len then
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
  in
  go 0

let find_sub s sub from =
  let n = String.length sub and m = String.length s in
  let rec go i = if i + n > m then -1 else if String.sub s i n = sub then i else go (i + 1) in
  go from

(* Read exactly one HTTP response off a keep-alive connection.  The server
   always frames with Content-Length, so read head, then head + body. *)
let recv_response fd scratch =
  let b = Buffer.create 1024 in
  let rec fill need =
    if Buffer.length b < need then begin
      let n = Unix.read fd scratch 0 (Bytes.length scratch) in
      if n = 0 then failwith "server closed connection";
      Buffer.add_subbytes b scratch 0 n;
      fill need
    end
  in
  let rec head () =
    match find_sub (Buffer.contents b) "\r\n\r\n" 0 with
    | -1 ->
        fill (Buffer.length b + 1);
        head ()
    | i -> i
  in
  let head_end = head () in
  let s = Buffer.contents b in
  let clen =
    let lower = String.lowercase_ascii (String.sub s 0 head_end) in
    match find_sub lower "content-length:" 0 with
    | -1 -> 0
    | i ->
        let stop = find_sub lower "\r\n" i in
        let v = String.sub lower (i + 15) (stop - i - 15) in
        int_of_string (String.trim v)
  in
  fill (head_end + 4 + clen);
  Buffer.length b

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let rank = int_of_float (ceil (p *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

let bench_endpoint ~port ~path ~n =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let req =
        Bytes.of_string
          (Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path)
      in
      let scratch = Bytes.create 65536 in
      for _ = 1 to 64 do
        write_all fd req;
        ignore (recv_response fd scratch)
      done;
      let lat = Array.make n 0.0 in
      let bytes = ref 0 in
      let t0 = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        let s = Unix.gettimeofday () in
        write_all fd req;
        bytes := recv_response fd scratch;
        lat.(i) <- Unix.gettimeofday () -. s
      done;
      let total = Unix.gettimeofday () -. t0 in
      Array.sort compare lat;
      let rps = float_of_int n /. total in
      (rps, percentile lat 0.50, percentile lat 0.99, !bytes))

(* The two-epoch streaming scenario from the test suite, measured: how many
   sweeps does each epoch-2 variant need to pass the R̂ gate? *)
let base_obs =
  [ "rfd 64512 901"; "rfd 64513 901"; "clean 64512 64513";
    "clean 64513 64514"; "clean 64512 64514" ]

let growth_obs = [ "rfd 64512 901"; "clean 64513 64514"; "clean 64512 64514" ]

let reps n l = List.concat_map (fun _ -> l) (List.init n Fun.id)

let stream_gate_rows () =
  let path = Filename.temp_file "because-bench-stream" ".obs" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let write lines =
        Out_channel.with_open_bin path (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) lines)
      in
      let spec =
        { (Sspec.default ~id:"bench-stream") with
          Sspec.seed = 11; samples = 300; burn_in = 150; chains = 2;
          obs = Some path }
      in
      let telemetry = Because_telemetry.Registry.disabled in
      let supervise =
        { Because_recover.Supervise.deadline_s = None; max_sweeps = None }
      in
      let run ~epoch ~prior =
        match
          Stream.run ~spec ~epoch ~prior ~telemetry ~supervise ~jobs:1 ()
        with
        | Ok o -> o
        | Error e -> failwith ("bench stream: " ^ e)
      in
      let obs1 = reps 8 base_obs in
      write obs1;
      let epoch1 = run ~epoch:1 ~prior:[||] in
      write (obs1 @ reps 5 growth_obs);
      let warm = run ~epoch:2 ~prior:epoch1.Stream.estimates in
      (* A cold epoch 2: same observations and epoch-derived RNG, full
         burn-in, default chain initialisation. *)
      let cold_gate = (run ~epoch:2 ~prior:[||]).Stream.gate_sweeps in
      match (warm.Stream.gate_sweeps, cold_gate) with
      | Some w, Some c ->
          let saving = (1.0 -. (float_of_int w /. float_of_int c)) *. 100.0 in
          Printf.printf "%-36s %10d sweeps\n" "epoch-2 cold gate" c;
          Printf.printf "%-36s %10d sweeps (-%.0f%%)\n" "epoch-2 warm gate" w
            saving;
          [ { name = "stream_cold_gate_sweeps"; value = float_of_int c;
              unit_ = "sweeps" };
            { name = "stream_warm_gate_sweeps"; value = float_of_int w;
              unit_ = "sweeps" };
            { name = "stream_warm_saving"; value = saving; unit_ = "%" } ]
      | _ -> failwith "bench stream: a convergence gate did not pass")

(* Overload behaviour: goodput at 3x worker capacity through one-shot
   connections, tail latency of the successes against the request
   deadline, and a deterministic shed burst that checks every 503
   carries Retry-After. *)

let overload_deadline_s = 1.0

(* One request over a fresh connection; returns (status, latency, head). *)
let one_shot ~port ~path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      write_all fd
        (Bytes.of_string
           (Printf.sprintf
              "GET %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
              path));
      let b = Buffer.create 1024 in
      let scratch = Bytes.create 65536 in
      (try
         let rec drain () =
           let n = Unix.read fd scratch 0 (Bytes.length scratch) in
           if n > 0 then begin
             Buffer.add_subbytes b scratch 0 n;
             drain ()
           end
         in
         drain ()
       with Unix.Unix_error _ -> ());
      let raw = Buffer.contents b in
      let latency = Unix.gettimeofday () -. t0 in
      let status =
        if String.length raw >= 12 && String.sub raw 0 5 = "HTTP/" then
          try int_of_string (String.sub raw 9 3) with Failure _ -> 0
        else 0
      in
      let head =
        match find_sub raw "\r\n\r\n" 0 with
        | -1 -> raw
        | i -> String.lowercase_ascii (String.sub raw 0 i)
      in
      (status, latency, head))

let overload_rows () =
  Ctx.section "http overload";
  let dir = fresh_dir () in
  let svc = Svc.create (Svc.default_config ~state_dir:dir) in
  populate svc;
  let threads = 2 in
  (* The server's default watermark formula: above the 3x-capacity client
     count, so the goodput phase is never shed, while the stall burst
     below deliberately crosses it. *)
  let watermark = (2 * threads) + 8 in
  let server =
    Server.start ~threads ~port:0 ~request_deadline:overload_deadline_s
      ~shed_watermark:watermark (Query.router svc)
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port = Server.port server in
      let bad_shed = Atomic.make 0 in
      (* One load phase: [clients] threads hammering one-shot connections
         for [duration] seconds.  Returns goodput, p99 of the successes,
         and the shed count.  Both phases use the same threaded client
         harness so the comparison isolates the effect of overload. *)
      let load_phase ~clients ~duration =
        let ok = Atomic.make 0 and shed = Atomic.make 0 in
        let other = Atomic.make 0 in
        let lat_mu = Mutex.create () in
        let lats = ref [] in
        let stop_at = Unix.gettimeofday () +. duration in
        let client () =
          while Unix.gettimeofday () < stop_at do
            match one_shot ~port ~path:"/status" with
            | 200, l, _ ->
                Atomic.incr ok;
                Mutex.protect lat_mu (fun () -> lats := l :: !lats)
            | 503, _, head ->
                Atomic.incr shed;
                if find_sub head "retry-after:" 0 = -1
                   || find_sub head "x-queue-depth:" 0 = -1
                then Atomic.incr bad_shed
            | _ -> Atomic.incr other
            | exception _ -> Atomic.incr other
          done
        in
        let t1 = Unix.gettimeofday () in
        let ts = List.init clients (fun _ -> Thread.create client ()) in
        List.iter Thread.join ts;
        let elapsed = Unix.gettimeofday () -. t1 in
        let lat = Array.of_list !lats in
        Array.sort compare lat;
        ( float_of_int (Atomic.get ok) /. elapsed,
          percentile lat 0.99,
          Atomic.get shed,
          Atomic.get other )
      in
      let duration = if Ctx.quick then 0.5 else 2.0 in
      (* Offered load at capacity: one client per worker thread. *)
      let base_rps, _, _, _ = load_phase ~clients:threads ~duration in
      (* 3x capacity. *)
      let clients = threads * 3 in
      let goodput, p99, shed_n, other_n =
        load_phase ~clients ~duration
      in
      (* Deterministic shed burst: stall every worker with a half-sent
         request, then open enough further connections to cross the
         watermark; the excess must be shed with Retry-After. *)
      let stalls =
        List.init threads (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            write_all fd (Bytes.of_string "GET /status HTTP/1.1\r\n");
            fd)
      in
      Thread.delay 0.1;
      (* Open the whole burst before reading a single response, so the
         accept queue actually crosses the watermark. *)
      let burst = watermark + 3 in
      let burst_fds =
        List.init burst (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
            write_all fd
              (Bytes.of_string
                 "GET /status HTTP/1.1\r\nHost: bench\r\nConnection: \
                  close\r\n\r\n");
            fd)
      in
      Thread.delay 0.1;
      let burst_shed = ref 0 in
      List.iter
        (fun fd ->
          let b = Buffer.create 1024 in
          let scratch = Bytes.create 65536 in
          (try
             let rec drain () =
               let n = Unix.read fd scratch 0 (Bytes.length scratch) in
               if n > 0 then begin
                 Buffer.add_subbytes b scratch 0 n;
                 drain ()
               end
             in
             drain ()
           with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          let raw = Buffer.contents b in
          if String.length raw >= 12 && String.sub raw 9 3 = "503" then begin
            incr burst_shed;
            let head = String.lowercase_ascii raw in
            if find_sub head "retry-after:" 0 = -1 then Atomic.incr bad_shed
          end)
        burst_fds;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) stalls;
      if Atomic.get bad_shed > 0 then
        failwith "overload bench: a 503 lacked Retry-After/X-Queue-Depth";
      if !burst_shed = 0 then
        failwith "overload bench: shed burst produced no 503s";
      let pct = goodput /. base_rps *. 100.0 in
      Printf.printf "%-36s %10.0f req/s\n" "one-shot at capacity" base_rps;
      Printf.printf "%-36s %10.0f req/s (%.0f%% of capacity, p99 %.1f ms)\n"
        (Printf.sprintf "goodput at %dx capacity" (clients / threads))
        goodput pct (p99 *. 1e3);
      Printf.printf "%-36s %10d shed (+%d in burst), %d other\n" "overload sheds"
        shed_n !burst_shed other_n;
      [ { name = "overload_uncontended_rps"; value = base_rps; unit_ = "1/s" };
        { name = "overload_goodput_rps"; value = goodput; unit_ = "1/s" };
        { name = "overload_goodput_pct"; value = pct; unit_ = "%" };
        { name = "overload_p99"; value = p99 *. 1e6; unit_ = "us" };
        { name = "overload_deadline"; value = overload_deadline_s *. 1e6;
          unit_ = "us" };
        { name = "overload_shed"; value = float_of_int (shed_n + !burst_shed);
          unit_ = "1" } ])

let run () =
  Ctx.section "http query plane";
  let dir = fresh_dir () in
  let svc = Svc.create (Svc.default_config ~state_dir:dir) in
  populate svc;
  let server = Server.start ~threads:2 ~port:0 (Query.router svc) in
  let rows =
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let port = Server.port server in
        List.concat_map
          (fun (label, path) ->
            let rps, p50, p99, body =
              bench_endpoint ~port ~path ~n:requests_per_endpoint
            in
            Printf.printf "%-36s %10.0f req/s (p50 %.0f us, p99 %.0f us, %d B)\n"
              (label ^ " sustained") rps (p50 *. 1e6) (p99 *. 1e6) body;
            [ { name = label ^ "_rps"; value = rps; unit_ = "1/s" };
              { name = label ^ "_p50"; value = p50 *. 1e6; unit_ = "us" };
              { name = label ^ "_p99"; value = p99 *. 1e6; unit_ = "us" } ])
          [ ("status", "/status"); ("matrix", "/matrix") ])
  in
  let rows = rows @ overload_rows () @ stream_gate_rows () in
  Ctx.write_json ~schema:"because-bench-http/1" "BENCH_http.json"
    (List.map
       (fun { name; value; unit_ } -> Ctx.value_row ~name ~value ~unit_)
       rows);
  Printf.printf "wrote BENCH_http.json (%d rows)\n" (List.length rows)

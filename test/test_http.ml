(* The embedded HTTP server: parser hardening, router dispatch, the
   threaded server over real sockets, and the query plane's
   generation-stamped snapshot cache.

   The parser is total by contract — the fuzz cases feed it arbitrary
   garbage, arbitrary split points and pipelined concatenations and only
   ever observe the three declared outcomes.  The server tests bind
   127.0.0.1:0 (a free port) and speak HTTP/1.1 over Unix sockets, so
   they exercise the same code path as a real client. *)

module Req = Because_http.Request
module Resp = Because_http.Response
module Router = Because_http.Router
module Server = Because_http.Server
module Service = Because_service.Service
module Query = Because_service.Query
module Sspec = Because_service.Spec

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i =
    i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)

let parse_ok ?limits s =
  match Req.parse ?limits s ~pos:0 with
  | `Ok (r, n) -> (r, n)
  | `More -> Alcotest.failf "wanted Ok, got More on %S" s
  | `Error e -> Alcotest.failf "wanted Ok, got %s on %S" (Req.error_message e) s

let parse_err ?limits s =
  match Req.parse ?limits s ~pos:0 with
  | `Error e -> e
  | `Ok _ -> Alcotest.failf "wanted Error, got Ok on %S" s
  | `More -> Alcotest.failf "wanted Error, got More on %S" s

let test_parse_basics () =
  let raw = "GET /status?asn=42&x=a%20b HTTP/1.1\r\nHost: h\r\n\r\n" in
  let r, n = parse_ok raw in
  Alcotest.(check string) "meth" "GET" r.Req.meth;
  Alcotest.(check string) "path" "/status" r.Req.path;
  Alcotest.(check string) "version" "HTTP/1.1" r.Req.version;
  Alcotest.(check (option string)) "query int" (Some "42")
    (Req.query_param r "asn");
  Alcotest.(check (option string)) "query decoded" (Some "a b")
    (Req.query_param r "x");
  Alcotest.(check (option string)) "header case-insensitive" (Some "h")
    (Req.header r "HOST");
  Alcotest.(check string) "empty body" "" r.Req.body;
  Alcotest.(check int) "consumed all" (String.length raw) n;
  (* Body framing via Content-Length. *)
  let raw = "POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" in
  let r, n = parse_ok raw in
  Alcotest.(check string) "body" "hello" r.Req.body;
  Alcotest.(check int) "consumed body too" (String.length raw) n;
  (* Path percent-decoding; '+' stays literal outside the query. *)
  let r, _ = parse_ok "GET /a%2Fb+c HTTP/1.1\r\n\r\n" in
  Alcotest.(check string) "decoded path" "/a/b+c" r.Req.path;
  Alcotest.(check string) "invalid escapes pass through" "%zz %4"
    (Req.percent_decode "%zz+%4")

let test_parse_incremental_and_pipelined () =
  let one = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n" in
  let two = one ^ "POST /b HTTP/1.0\r\nContent-Length: 2\r\n\r\nxy" in
  (* Every proper prefix asks for more bytes; never errors, never
     commits early. *)
  for cut = 0 to String.length one - 1 do
    match Req.parse (String.sub one 0 cut) ~pos:0 with
    | `More -> ()
    | `Ok _ -> Alcotest.failf "Ok on %d-byte prefix" cut
    | `Error _ -> Alcotest.failf "Error on %d-byte prefix" cut
  done;
  (* Pipelined successor parses from the reported offset. *)
  let r1, n1 = parse_ok two in
  Alcotest.(check string) "first of pipeline" "/a" r1.Req.path;
  (match Req.parse two ~pos:n1 with
  | `Ok (r2, n2) ->
      Alcotest.(check string) "second of pipeline" "/b" r2.Req.path;
      Alcotest.(check string) "second body" "xy" r2.Req.body;
      Alcotest.(check int) "pipeline consumed all" (String.length two) n2
  | _ -> Alcotest.fail "second pipelined request did not parse")

let test_parse_rejections () =
  let bad s =
    match parse_err s with
    | Req.Bad_request _ -> ()
    | Req.Too_large _ -> Alcotest.failf "wanted 400, got 413 on %S" s
  in
  bad "NOT-HTTP\r\n\r\n";
  bad "GET /a\r\n\r\n";
  bad "GET /a SPDY/9\r\n\r\n";
  bad "G@T /a HTTP/1.1\r\n\r\n";
  bad "GET /a HTTP/1.1\r\nno-colon\r\n\r\n";
  bad "GET /a HTTP/1.1\r\nH: a\x01b\r\n\r\n";
  (* Framing games are refused, not guessed at. *)
  bad "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  bad "POST /a HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n";
  bad "POST /a HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
  bad "POST /a HTTP/1.1\r\nContent-Length: -1\r\n\r\n";
  Alcotest.(check int) "400 status" 400
    (Req.error_status (parse_err "GET /a\r\n\r\n"));
  (* Declared sizes are capped before any buffering. *)
  let limits = { Req.max_head = 128; max_body = 16 } in
  (match parse_err ~limits "POST /a HTTP/1.1\r\nContent-Length: 17\r\n\r\n" with
  | Req.Too_large _ -> ()
  | Req.Bad_request _ -> Alcotest.fail "oversized declared body not 413");
  let big = "GET /a HTTP/1.1\r\nH: " ^ String.make 200 'x' in
  (match Req.parse ~limits big ~pos:0 with
  | `Error (Req.Too_large e) ->
      Alcotest.(check int) "413 status" 413 (Req.error_status (Req.Too_large e))
  | _ -> Alcotest.fail "unterminated oversized head not 413")

let test_keep_alive () =
  let ka s = Req.keep_alive (fst (parse_ok s)) in
  Alcotest.(check bool) "1.1 default on" true (ka "GET / HTTP/1.1\r\n\r\n");
  Alcotest.(check bool) "1.1 close wins" false
    (ka "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  Alcotest.(check bool) "1.0 default off" false (ka "GET / HTTP/1.0\r\n\r\n");
  Alcotest.(check bool) "1.0 opt-in" true
    (ka "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")

let qcheck_parser_total_on_garbage =
  QCheck.Test.make ~name:"parser total on arbitrary bytes" ~count:500
    QCheck.(string_gen_of_size (Gen.int_range 0 300) Gen.char)
    (fun s ->
      List.for_all
        (fun pos ->
          match Req.parse s ~pos with `Ok _ | `More | `Error _ -> true)
        [ 0; String.length s / 2 ])

let qcheck_parser_split_points =
  let sample =
    "POST /submit?x=%31 HTTP/1.1\r\nHost: h\r\nX-A: b\r\n\
     Content-Length: 5\r\n\r\nhello"
  in
  QCheck.Test.make ~name:"any split of a valid request parses" ~count:200
    QCheck.(int_range 0 (String.length sample))
    (fun cut ->
      match Req.parse (String.sub sample 0 cut) ~pos:0 with
      | `More -> cut < String.length sample
      | `Ok (r, n) ->
          cut = String.length sample && n = cut && r.Req.body = "hello"
      | `Error _ -> false)

let qcheck_parser_pipelined =
  let one = "GET /x HTTP/1.1\r\nHost: h\r\n\r\n" in
  QCheck.Test.make ~name:"k pipelined copies parse to k requests" ~count:50
    QCheck.(int_range 1 8)
    (fun k ->
      let buf = String.concat "" (List.init k (fun _ -> one)) in
      let rec count pos acc =
        if pos >= String.length buf then acc
        else
          match Req.parse buf ~pos with
          | `Ok (_, n) -> count n (acc + 1)
          | `More | `Error _ -> -1
      in
      count 0 0 = k)

(* ------------------------------------------------------------------ *)
(* Router                                                               *)

let req_of s = fst (parse_ok s)

let test_router_dispatch () =
  let rt = Router.create () in
  Router.add rt ~meth:"GET" ~pattern:"/status" (fun _ _ -> Resp.text "ok");
  Router.add rt ~meth:"GET" ~pattern:"/campaigns/:id/report" (fun _ params ->
      Resp.text ("report:" ^ Option.value ~default:"?" (List.assoc_opt "id" params)));
  Router.add rt ~meth:"POST" ~pattern:"/submit" (fun _ _ -> Resp.text "posted");
  Router.add rt ~meth:"DELETE" ~pattern:"/submit" (fun _ _ -> Resp.text "gone");
  Router.add rt ~meth:"GET" ~pattern:"/boom" (fun _ _ -> failwith "renderer bug");
  let d s = Router.dispatch rt (req_of s) in
  Alcotest.(check int) "hit" 200 (d "GET /status HTTP/1.1\r\n\r\n").Resp.status;
  Alcotest.(check string) "capture decoded" "report:a b"
    (d "GET /campaigns/a%20b/report HTTP/1.1\r\n\r\n").Resp.body;
  Alcotest.(check int) "404 unknown path" 404
    (d "GET /nope HTTP/1.1\r\n\r\n").Resp.status;
  Alcotest.(check int) "404 wrong arity" 404
    (d "GET /campaigns/a/report/x HTTP/1.1\r\n\r\n").Resp.status;
  let m = d "PUT /submit HTTP/1.1\r\n\r\n" in
  Alcotest.(check int) "405 wrong method" 405 m.Resp.status;
  Alcotest.(check (option string)) "Allow lists methods, sorted"
    (Some "DELETE, POST")
    (List.assoc_opt "Allow" m.Resp.headers);
  Alcotest.(check int) "handler exception becomes 500" 500
    (d "GET /boom HTTP/1.1\r\n\r\n").Resp.status

(* ------------------------------------------------------------------ *)
(* Server over real sockets                                             *)

let with_conn port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      f fd)

let send_all fd s =
  let n = String.length s in
  let rec go i =
    if i < n then go (i + Unix.write_substring fd s i (n - i))
  in
  go 0

(* A deliberately independent mini response reader: status line, headers,
   Content-Length-framed body, leftover bytes returned for pipelining. *)
let read_responses fd count =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let find_head s from =
    let n = String.length s in
    let rec go i =
      if i + 4 > n then None
      else if String.sub s i 4 = "\r\n\r\n" then Some i
      else go (i + 1)
    in
    go from
  in
  let read_more () =
    let n = Unix.read fd chunk 0 1024 in
    if n = 0 then failwith "eof mid-response";
    Buffer.add_subbytes buf chunk 0 n
  in
  let parse_one from =
    let rec wait () =
      match find_head (Buffer.contents buf) from with
      | Some i -> i
      | None -> read_more (); wait ()
    in
    let head_end = wait () in
    let s = Buffer.contents buf in
    let head = String.sub s from (head_end - from) in
    let status =
      int_of_string (String.sub head (String.index head ' ' + 1) 3)
    in
    let clen =
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some i
            when String.lowercase_ascii (String.sub line 0 i)
                 = "content-length" ->
              int_of_string
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
          | _ -> acc)
        0
        (String.split_on_char '\n' head)
    in
    let body_start = head_end + 4 in
    while Buffer.length buf < body_start + clen do
      read_more ()
    done;
    let body = String.sub (Buffer.contents buf) body_start clen in
    (status, head, body, body_start + clen)
  in
  let rec go from acc k =
    if k = 0 then List.rev acc
    else
      let status, head, body, next = parse_one from in
      go next ((status, head, body) :: acc) (k - 1)
  in
  go 0 [] count

let test_router () =
  let rt = Router.create () in
  Router.add rt ~meth:"GET" ~pattern:"/ping" (fun _ _ -> Resp.text "pong");
  Router.add rt ~meth:"POST" ~pattern:"/echo" (fun req _ ->
      Resp.text req.Req.body);
  rt

let test_server_basics () =
  let srv = Server.start ~threads:2 ~port:0 (test_router ()) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  (* Keep-alive: two requests over one connection. *)
  with_conn port (fun fd ->
      send_all fd "GET /ping HTTP/1.1\r\nHost: h\r\n\r\n";
      (match read_responses fd 1 with
      | [ (200, _, "pong") ] -> ()
      | _ -> Alcotest.fail "first keep-alive request");
      send_all fd
        "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
      match read_responses fd 1 with
      | [ (200, _, "hello") ] -> ()
      | _ -> Alcotest.fail "second keep-alive request");
  (* Pipelining: both requests in one write, answered in order. *)
  with_conn port (fun fd ->
      send_all fd
        ("POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\na"
        ^ "POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\nb");
      match read_responses fd 2 with
      | [ (200, _, "a"); (200, _, "b") ] -> ()
      | _ -> Alcotest.fail "pipelined responses");
  (* Contract statuses end to end: 404, 405, 400, and Connection: close. *)
  with_conn port (fun fd ->
      send_all fd "GET /nope HTTP/1.1\r\n\r\n";
      match read_responses fd 1 with
      | [ (404, _, _) ] -> ()
      | _ -> Alcotest.fail "404 over the wire");
  with_conn port (fun fd ->
      send_all fd "PUT /ping HTTP/1.1\r\n\r\n";
      match read_responses fd 1 with
      | [ (405, head, _) ] ->
          Alcotest.(check bool) "Allow over the wire" true
            (contains ~sub:"Allow: GET" head)
      | _ -> Alcotest.fail "405 over the wire");
  with_conn port (fun fd ->
      send_all fd "total garbage\r\n\r\n";
      match read_responses fd 1 with
      | [ (400, head, _) ] ->
          Alcotest.(check bool) "400 closes" true
            (contains ~sub:"Connection: close" head)
      | _ -> Alcotest.fail "400 over the wire")

let test_server_limits_and_deadline () =
  let limits = { Req.max_head = 512; max_body = 64 } in
  let srv =
    Server.start ~threads:2 ~limits ~read_timeout:0.2 ~port:0 (test_router ())
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  (* Declared-size cap: 413 before the body is even sent. *)
  with_conn port (fun fd ->
      send_all fd "POST /echo HTTP/1.1\r\nContent-Length: 65\r\n\r\n";
      match read_responses fd 1 with
      | [ (413, _, _) ] -> ()
      | _ -> Alcotest.fail "oversized declared body not 413");
  (* Slow-client deadline: a half-sent request gets dropped, not a worker
     pinned forever; the server still serves the next client. *)
  with_conn port (fun fd ->
      send_all fd "GET /pi";
      let rec drain () =
        if Unix.read fd (Bytes.create 64) 0 64 > 0 then drain ()
      in
      match drain () with
      | () -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  with_conn port (fun fd ->
      send_all fd "GET /ping HTTP/1.1\r\n\r\n";
      match read_responses fd 1 with
      | [ (200, _, "pong") ] -> ()
      | _ -> Alcotest.fail "server dead after slow client")

(* ------------------------------------------------------------------ *)
(* Adversarial pacing: the server's deadline discipline over real
   sockets.  A client may dribble bytes arbitrarily slowly or split the
   head anywhere — a complete request is always answered, an incomplete
   one is answered 408 at its deadline, and neither pins a worker. *)

let test_server_byte_at_a_time () =
  let srv = Server.start ~threads:2 ~port:0 (test_router ()) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  (* Two pipelined requests, delivered one byte at a time: both must be
     answered, in order, from the same connection. *)
  let raw =
    "POST /echo HTTP/1.1\r\nContent-Length: 1\r\n\r\na"
    ^ "GET /ping HTTP/1.1\r\nHost: h\r\n\r\n"
  in
  with_conn port (fun fd ->
      String.iter
        (fun c ->
          send_all fd (String.make 1 c);
          Thread.delay 0.001)
        raw;
      match read_responses fd 2 with
      | [ (200, _, "a"); (200, _, "pong") ] -> ()
      | _ -> Alcotest.fail "byte-at-a-time pipelined pair")

let test_server_split_every_boundary () =
  let srv = Server.start ~threads:2 ~port:0 (test_router ()) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  let raw = "GET /ping HTTP/1.1\r\nHost: h\r\n\r\n" in
  (* Splitting the head at every byte boundary must never confuse the
     incremental parser: each half-then-rest connection gets its 200. *)
  for cut = 1 to String.length raw - 1 do
    with_conn port (fun fd ->
        send_all fd (String.sub raw 0 cut);
        Thread.delay 0.005;
        send_all fd (String.sub raw cut (String.length raw - cut));
        match read_responses fd 1 with
        | [ (200, _, "pong") ] -> ()
        | _ -> Alcotest.failf "split at byte %d" cut)
  done

let test_server_body_after_deadline_408 () =
  let srv =
    Server.start ~threads:1 ~read_timeout:5.0 ~request_deadline:0.3 ~port:0
      (test_router ())
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  (* Headers complete, body promised but withheld: the request is still
     incomplete at its deadline and must be answered 408 — not dropped
     silently, not waited on forever. *)
  with_conn port (fun fd ->
      send_all fd "POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nxy";
      match read_responses fd 1 with
      | [ (408, head, _) ] ->
          Alcotest.(check bool) "408 closes" true
            (contains ~sub:"Connection: close" head)
      | _ -> Alcotest.fail "withheld body not 408");
  (* An idle keep-alive connection past the deadline is NOT 408'd: the
     deadline disarms between requests. *)
  with_conn port (fun fd ->
      send_all fd "GET /ping HTTP/1.1\r\nHost: h\r\n\r\n";
      (match read_responses fd 1 with
      | [ (200, _, "pong") ] -> ()
      | _ -> Alcotest.fail "first request");
      Thread.delay 0.5;
      send_all fd "GET /ping HTTP/1.1\r\nHost: h\r\n\r\n";
      match read_responses fd 1 with
      | [ (200, _, "pong") ] -> ()
      | _ -> Alcotest.fail "idle keep-alive survived the deadline")

let test_server_deadline_propagated () =
  (* Handlers see the request's absolute deadline and can bound their
     own waits by it. *)
  let rt = Router.create () in
  Router.add rt ~meth:"GET" ~pattern:"/deadline" (fun req _ ->
      match Req.remaining_s req with
      | Some s when s > 0.0 && s <= 1.0 -> Resp.text "bounded"
      | Some _ -> Resp.text ~status:500 "deadline out of range"
      | None -> Resp.text ~status:500 "deadline missing");
  let srv = Server.start ~threads:1 ~request_deadline:1.0 ~port:0 rt in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  with_conn (Server.port srv) (fun fd ->
      send_all fd "GET /deadline HTTP/1.1\r\n\r\n";
      match read_responses fd 1 with
      | [ (200, _, "bounded") ] -> ()
      | [ (_, _, body) ] -> Alcotest.failf "handler saw: %s" body
      | _ -> Alcotest.fail "deadline probe")

let test_server_shed_watermark () =
  let rt = Router.create () in
  Router.add rt ~meth:"GET" ~pattern:"/slow" (fun _ _ ->
      Thread.delay 0.5;
      Resp.text "done");
  let srv = Server.start ~threads:1 ~shed_watermark:1 ~port:0 rt in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let port = Server.port srv in
  (* A occupies the single worker; B queues (depth 1 = the watermark);
     C must be shed at accept with the full backpressure contract. *)
  with_conn port (fun fd_a ->
      send_all fd_a "GET /slow HTTP/1.1\r\nHost: h\r\n\r\n";
      Thread.delay 0.15;
      with_conn port (fun fd_b ->
          send_all fd_b "GET /slow HTTP/1.1\r\nHost: h\r\n\r\n";
          Thread.delay 0.1;
          with_conn port (fun fd_c ->
              match read_responses fd_c 1 with
              | [ (503, head, _) ] ->
                  Alcotest.(check bool) "Retry-After present" true
                    (contains ~sub:"Retry-After:" head);
                  Alcotest.(check bool) "X-Queue-Depth present" true
                    (contains ~sub:"X-Queue-Depth:" head)
              | _ -> Alcotest.fail "watermark connection not shed");
          (* The clients that were admitted still complete: shedding
             preserved goodput rather than degrading everyone. *)
          (match read_responses fd_b 1 with
          | [ (200, _, "done") ] -> ()
          | _ -> Alcotest.fail "queued client B");
          match read_responses fd_a 1 with
          | [ (200, _, "done") ] -> ()
          | _ -> Alcotest.fail "running client A"))

let test_server_stop_idempotent () =
  let srv = Server.start ~threads:1 ~port:0 (test_router ()) in
  let port = Server.port srv in
  Server.stop srv;
  Server.stop srv;
  match with_conn port (fun _ -> ()) with
  | () -> Alcotest.fail "stopped server still accepting"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()

let qcheck_server_garbage =
  QCheck.Test.make ~name:"server survives arbitrary client bytes" ~count:20
    QCheck.(string_gen_of_size (Gen.int_range 1 200) Gen.char)
    (fun garbage ->
      let srv = Server.start ~threads:1 ~read_timeout:0.2 ~port:0
          (test_router ())
      in
      Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
      let port = Server.port srv in
      (try
         with_conn port (fun fd ->
             send_all fd garbage;
             let rec drain () =
               if Unix.read fd (Bytes.create 256) 0 256 > 0 then drain ()
             in
             try drain () with Unix.Unix_error _ -> ())
       with Unix.Unix_error _ -> ());
      with_conn port (fun fd ->
          send_all fd "GET /ping HTTP/1.1\r\n\r\n";
          match read_responses fd 1 with
          | [ (200, _, "pong") ] -> true
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Query plane: snapshot cache coherence and the admission contract     *)

let fresh_dir () =
  let f = Filename.temp_file "because-http" ".dir" in
  Sys.remove f;
  f

let generation_of resp =
  match List.assoc_opt "X-Generation" resp.Resp.headers with
  | Some g -> int_of_string g
  | None -> Alcotest.fail "response missing X-Generation"

let test_query_cache_coherence () =
  let svc = Service.create (Service.default_config ~state_dir:(fresh_dir ())) in
  let rt = Query.router svc in
  let get path = Router.dispatch rt (req_of ("GET " ^ path ^ " HTTP/1.1\r\n\r\n")) in
  (* Coherence: the stamp is never older than the store generation read
     before the request was made. *)
  let g0 = Service.generation svc in
  let r1 = get "/status" in
  Alcotest.(check bool) "stamp >= generation at read" true
    (generation_of r1 >= g0);
  (* Unchanged store: cached bytes, same stamp. *)
  let r2 = get "/status" in
  Alcotest.(check int) "cache hit stamp" (generation_of r1) (generation_of r2);
  Alcotest.(check string) "cache hit bytes" r1.Resp.body r2.Resp.body;
  (* A mutation bumps the generation and forces a re-render that reflects
     it. *)
  (match Service.submit svc (Sspec.default ~id:"camp1") with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "submit: %s" (Service.reason_to_string r));
  let g1 = Service.generation svc in
  Alcotest.(check bool) "mutation bumped generation" true (g1 > g0);
  let r3 = get "/status" in
  Alcotest.(check bool) "re-rendered stamp" true (generation_of r3 >= g1);
  Alcotest.(check bool) "re-rendered body sees the mutation" true
    (contains ~sub:"camp1" r3.Resp.body);
  (* The other cached documents carry the same contract. *)
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " stamped fresh") true
        (generation_of (get path) >= g1))
    [ "/matrix"; "/estimates" ];
  Alcotest.(check int) "report pending" 202
    (get "/campaigns/camp1/report").Resp.status;
  Alcotest.(check int) "report unknown" 404
    (get "/campaigns/nope/report").Resp.status;
  Alcotest.(check int) "estimates bad asn" 400
    (get "/estimates?asn=abc").Resp.status

let test_query_submit_contract () =
  let svc = Service.create (Service.default_config ~state_dir:(fresh_dir ())) in
  let rt = Query.router svc in
  let post body =
    Router.dispatch rt
      (req_of
         (Printf.sprintf
            "POST /submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            (String.length body) body))
  in
  Alcotest.(check int) "accepted" 202 (post "id=q1 seed=3").Resp.status;
  Alcotest.(check int) "duplicate is 409" 409 (post "id=q1 seed=3").Resp.status;
  Alcotest.(check int) "invalid spec is 400" 400
    (post "id=q2 bogus=1").Resp.status;
  Alcotest.(check int) "draining is 503"
    503
    (Service.drain svc;
     (post "id=q3 seed=1").Resp.status);
  Because_recover.Supervise.clear_drain ();
  Alcotest.(check int) "reason map total" 400
    (Query.status_of_reason (Service.Invalid "r"))

let suite =
  ( "http",
    [
      Alcotest.test_case "parser basics" `Quick test_parse_basics;
      Alcotest.test_case "parser incremental + pipelined" `Quick
        test_parse_incremental_and_pipelined;
      Alcotest.test_case "parser rejections" `Quick test_parse_rejections;
      Alcotest.test_case "keep-alive rules" `Quick test_keep_alive;
      QCheck_alcotest.to_alcotest qcheck_parser_total_on_garbage;
      QCheck_alcotest.to_alcotest qcheck_parser_split_points;
      QCheck_alcotest.to_alcotest qcheck_parser_pipelined;
      Alcotest.test_case "router dispatch contract" `Quick test_router_dispatch;
      Alcotest.test_case "server keep-alive + pipelining + statuses" `Quick
        test_server_basics;
      Alcotest.test_case "server limits + slow-client deadline" `Quick
        test_server_limits_and_deadline;
      Alcotest.test_case "server byte-at-a-time pipelining" `Quick
        test_server_byte_at_a_time;
      Alcotest.test_case "server head split at every boundary" `Quick
        test_server_split_every_boundary;
      Alcotest.test_case "server 408 on withheld body" `Quick
        test_server_body_after_deadline_408;
      Alcotest.test_case "server propagates deadline to handlers" `Quick
        test_server_deadline_propagated;
      Alcotest.test_case "server sheds at the watermark" `Quick
        test_server_shed_watermark;
      Alcotest.test_case "server stop idempotent" `Quick
        test_server_stop_idempotent;
      QCheck_alcotest.to_alcotest qcheck_server_garbage;
      Alcotest.test_case "query snapshot cache coherence" `Quick
        test_query_cache_coherence;
      Alcotest.test_case "query submit status mapping" `Quick
        test_query_submit_contract;
    ] )

module Registry = Because_telemetry.Registry

type metrics = {
  requests : Registry.Counter.handle;
  resp_2xx : Registry.Counter.handle;
  resp_4xx : Registry.Counter.handle;
  resp_5xx : Registry.Counter.handle;
  rejected : Registry.Counter.handle;
  shed : Registry.Counter.handle;
  timeouts : Registry.Counter.handle;
  latency : Registry.Histogram.handle;
}

let metrics_of registry =
  {
    requests = Registry.Counter.v registry "http.requests";
    resp_2xx = Registry.Counter.v registry "http.responses.2xx";
    resp_4xx = Registry.Counter.v registry "http.responses.4xx";
    resp_5xx = Registry.Counter.v registry "http.responses.5xx";
    rejected = Registry.Counter.v registry "http.rejected";
    shed = Registry.Counter.v registry "http.shed";
    timeouts = Registry.Counter.v registry "http.timeouts";
    latency = Registry.Histogram.v registry "http.request_seconds";
  }

type t = {
  bound_port : int;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  wake : Unix.file_descr;  (** Write end of the self-pipe [stop] wakes. *)
  accept_domain : unit Domain.t;
}

(* Bounded multi-producer/multi-consumer queue of connections.  [None] is
   the worker shutdown sentinel and is never refused. *)
type conn_queue = {
  q : Unix.file_descr option Queue.t;
  capacity : int;
  mu : Mutex.t;
  nonempty : Condition.t;
}

let queue_create capacity =
  { q = Queue.create (); capacity; mu = Mutex.create ();
    nonempty = Condition.create () }

let queue_push cq item =
  Mutex.lock cq.mu;
  let accepted =
    match item with
    | None -> Queue.push item cq.q; true
    | Some _ when Queue.length cq.q < cq.capacity ->
        Queue.push item cq.q; true
    | Some _ -> false
  in
  if accepted then Condition.signal cq.nonempty;
  Mutex.unlock cq.mu;
  accepted

let queue_pop cq =
  Mutex.lock cq.mu;
  while Queue.is_empty cq.q do Condition.wait cq.nonempty cq.mu done;
  let item = Queue.pop cq.q in
  Mutex.unlock cq.mu;
  item

let queue_depth cq =
  Mutex.lock cq.mu;
  let d = Queue.length cq.q in
  Mutex.unlock cq.mu;
  d

let write_all fd s =
  let n = String.length s in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let count_status m status =
  if status < 400 then Registry.Counter.incr m.resp_2xx
  else if status < 500 then Registry.Counter.incr m.resp_4xx
  else Registry.Counter.incr m.resp_5xx

(* Serve one connection to completion: pipelined keep-alive requests
   until EOF, error, deadline, or server shutdown.

   Deadline discipline: every request carries an absolute deadline from
   its first byte (the first request's from accept) to its response.
   While a request is incomplete, reads are capped at the smaller of the
   per-read timeout and the time remaining; a request that is still
   partial at its deadline is answered 408 and the connection closed —
   never silently hung on a worker.  Between pipelined requests the
   deadline is disarmed and only the idle [read_timeout] applies. *)
let serve_conn ~router ~limits ~read_timeout ~request_deadline ~stopping
    ~wake_rd m fd =
  (* A peer that stops reading must not pin a worker in [write(2)]
     forever either: bound sends by the same per-op timeout. *)
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO read_timeout
   with Unix.Unix_error _ -> ());
  let chunk = Bytes.create 8192 in
  let buf = ref "" in
  let pos = ref 0 in
  let alive = ref true in
  (* Absolute deadline of the request currently being read or served;
     [infinity] = idle between requests.  The first request's clock
     starts at accept. *)
  let deadline = ref (Unix.gettimeofday () +. request_deadline) in
  let respond_408 () =
    Registry.Counter.incr m.timeouts;
    Registry.Counter.incr m.requests;
    count_status m 408;
    (try
       write_all fd
         (Response.to_string ~keep_alive:false
            (Response.text ~status:408 "request timeout\n"))
     with Exit | Unix.Unix_error _ -> ());
    alive := false
  in
  (try
     while !alive do
       match Request.parse ~limits !buf ~pos:!pos with
       | `Ok (req, next) ->
           pos := next;
           if !pos = String.length !buf then begin buf := ""; pos := 0 end;
           let req = { req with Request.deadline = Some !deadline } in
           let t0 = Unix.gettimeofday () in
           let resp = Router.dispatch router req in
           Registry.Counter.incr m.requests;
           count_status m resp.Response.status;
           Registry.Histogram.observe m.latency (Unix.gettimeofday () -. t0);
           let keep =
             Request.keep_alive req && not (Atomic.get stopping)
           in
           write_all fd (Response.to_string ~keep_alive:keep resp);
           if not keep then alive := false
           else
             (* A pipelined successor is already on the clock; otherwise
                disarm until its first byte arrives. *)
             deadline :=
               if !pos < String.length !buf then
                 Unix.gettimeofday () +. request_deadline
               else infinity
       | `Error e ->
           let resp =
             Response.text ~status:(Request.error_status e)
               (Request.error_message e ^ "\n")
           in
           Registry.Counter.incr m.requests;
           count_status m resp.Response.status;
           write_all fd (Response.to_string ~keep_alive:false resp);
           alive := false
       | `More ->
           (* Compact consumed bytes before growing the buffer. *)
           if !pos > 0 then begin
             buf := String.sub !buf !pos (String.length !buf - !pos);
             pos := 0
           end;
           let partial = String.length !buf > 0 in
           let now = Unix.gettimeofday () in
           if now >= !deadline then
             (* Out of budget: a half-received request gets told, a
                silent fresh connection just gets dropped. *)
             if partial then respond_408 () else alive := false
           else begin
             let slice =
               Float.max 0.01 (Float.min read_timeout (!deadline -. now))
             in
             let read_chunk () =
               (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO slice
                with Unix.Unix_error _ -> ());
               match Unix.read fd chunk 0 (Bytes.length chunk) with
               | 0 -> alive := false
               | n ->
                   buf := !buf ^ Bytes.sub_string chunk 0 n;
                   if !deadline = infinity then
                     deadline := Unix.gettimeofday () +. request_deadline
               | exception
                   Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _)
                 ->
                   (* Read deadline hit: 408 a half-sent request (the
                      adversarial-pacing contract), silently drop an idle
                      keep-alive client. *)
                   if partial then respond_408 () else alive := false
             in
             (* Idle between requests, the worker also watches [stop]'s
                self-pipe and drops the client as soon as the server stops,
                instead of at the end of its read slice.  A request under
                way (or a fresh connection's first) is read to the end. *)
             if partial || !deadline < infinity then read_chunk ()
             else
               match Unix.select [ fd; wake_rd ] [] [] slice with
               | ready, _, _ when List.mem fd ready -> read_chunk ()
               | _ -> alive := false
               | exception Unix.Unix_error (EINTR, _, _) -> ()
           end
     done
   with
  | Exit -> ()
  | Unix.Unix_error _ -> ());
  close_quietly fd

let worker ~router ~limits ~read_timeout ~request_deadline ~stopping
    ~wake_rd m cq =
  let rec loop () =
    match queue_pop cq with
    | None -> ()
    | Some fd ->
        serve_conn ~router ~limits ~read_timeout ~request_deadline ~stopping
          ~wake_rd m fd;
        loop ()
  in
  loop ()

(* Shed responses are built per refusal (they carry the live queue
   depth); rare by construction, so the allocation is irrelevant. *)
let shed_response ~depth =
  Response.to_string ~keep_alive:false
    (Response.overloaded ~depth "server busy\n")

let accept_loop ~router ~limits ~read_timeout ~request_deadline
    ~shed_watermark ~stopping ~threads m cq listen_fd wake_rd =
  let workers =
    List.init threads (fun _ ->
        Thread.create
          (worker ~router ~limits ~read_timeout ~request_deadline ~stopping
             ~wake_rd m)
          cq)
  in
  let shed fd depth =
    Registry.Counter.incr m.rejected;
    Registry.Counter.incr m.shed;
    (try write_all fd (shed_response ~depth) with
    | Exit | Unix.Unix_error _ -> ());
    close_quietly fd
  in
  (* Block until a client or [stop]'s byte on the self-pipe arrives: no
     poll interval, and no cross-domain close racing a blocked [accept]. *)
  Unix.set_nonblock listen_fd;
  let running = ref true in
  while !running && not (Atomic.get stopping) do
    match Unix.select [ listen_fd; wake_rd ] [] [] (-1.0) with
    | ready, _, _ when not (List.mem listen_fd ready) -> ()
    | _ -> (
        match Unix.accept ~cloexec:true listen_fd with
        | fd, _ ->
            (* Adaptive load shedding: refuse at the watermark, before
               the queue is full — a client told "come back in a second"
               immediately beats one parked behind a hopeless backlog.
               The queue-full race below is the backstop. *)
            let depth = queue_depth cq in
            if depth >= shed_watermark then shed fd depth
            else if not (queue_push cq (Some fd)) then shed fd depth
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> running := false)
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> running := false
  done;
  close_quietly listen_fd;
  List.iter (fun _ -> ignore (queue_push cq None)) workers;
  List.iter Thread.join workers;
  close_quietly wake_rd

let start ?(registry = Registry.disabled) ?(addr = "127.0.0.1")
    ?(threads = 4) ?(limits = Request.default_limits)
    ?(read_timeout = 5.0) ?(request_deadline = 2.0) ?shed_watermark ~port
    router =
  if threads < 1 then invalid_arg "Server.start: threads < 1";
  if request_deadline <= 0.0 then
    invalid_arg "Server.start: request_deadline <= 0";
  let capacity = (threads * 4) + 16 in
  let shed_watermark =
    match shed_watermark with
    | None -> (threads * 2) + 8
    | Some w when w >= 1 -> min w capacity
    | Some _ -> invalid_arg "Server.start: shed_watermark < 1"
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let inet = Unix.inet_addr_of_string addr in
  let listen_fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (ADDR_INET (inet, port));
     Unix.listen listen_fd 128
   with e -> close_quietly listen_fd; raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> port
  in
  let stopping = Atomic.make false in
  let m = metrics_of registry in
  let cq = queue_create capacity in
  let wake_rd, wake = Unix.pipe ~cloexec:true () in
  let accept_domain =
    Domain.spawn (fun () ->
        accept_loop ~router ~limits ~read_timeout ~request_deadline
          ~shed_watermark ~stopping ~threads m cq listen_fd wake_rd)
  in
  { bound_port; stopping; stopped = Atomic.make false; wake; accept_domain }

let port t = t.bound_port

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    (* Workers finish the request in hand and answer it with
       [Connection: close]; one waiting on an idle connection sees the byte
       on the self-pipe and drops it.  The byte also wakes the accept loop,
       which closes the listen socket, drains and joins its workers, then
       the domain returns. *)
    (try ignore (Unix.write_substring t.wake "x" 0 1)
     with Unix.Unix_error _ -> ());
    Domain.join t.accept_domain;
    close_quietly t.wake
  end

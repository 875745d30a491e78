(** Threaded HTTP/1.1 server on [Unix] sockets, hardened for overload.

    One dedicated domain runs the accept loop and hosts a bounded pool of
    worker threads; blocking socket calls release the domain lock, so the
    server never contends with the domains doing inference.

    {b Deadlines.}  Every request carries an absolute deadline from its
    first byte (the first request of a connection from accept) to its
    response, stamped into {!Request.t.deadline} before dispatch so
    handlers can bound their own waits.  A request still incomplete at
    its deadline — or at the per-read [read_timeout] — is answered
    [408 Request Timeout] and the connection closed; an idle keep-alive
    client is dropped silently.  Writes are bounded by [SO_SNDTIMEO], so
    a peer that stops reading cannot pin a worker.

    {b Load shedding.}  When the connection queue reaches
    [shed_watermark] (before it is full), new clients are refused
    immediately with [503 + Retry-After + X-Queue-Depth] instead of
    queueing to death; a full queue is the backstop with the same
    response.

    Telemetry (when a live registry is supplied): [http.requests],
    [http.responses.<class>xx], [http.rejected], [http.shed],
    [http.timeouts] counters and an [http.request_seconds] latency
    histogram. *)

type t

val start :
  ?registry:Because_telemetry.Registry.t ->
  ?addr:string ->
  ?threads:int ->
  ?limits:Request.limits ->
  ?read_timeout:float ->
  ?request_deadline:float ->
  ?shed_watermark:int ->
  port:int ->
  Router.t ->
  t
(** Bind [addr] (default ["127.0.0.1"]) on [port] ([0] picks a free port)
    and serve [router] on [threads] workers (default 4).  [read_timeout]
    (default 5s) is the per-read deadline on client sockets;
    [request_deadline] (default 2s) the per-request budget from first
    byte to response; [shed_watermark] (default [2*threads + 8], clamped
    to the queue capacity [4*threads + 16]) the connection-queue depth at
    which new clients are shed.  Raises [Unix.Unix_error] if the bind
    fails, [Invalid_argument] on nonsensical parameters. *)

val port : t -> int
(** The actually bound port (useful with [port:0]). *)

val stop : t -> unit
(** Close the listen socket, drain in-flight connections, join every
    worker and the accept domain.  Idempotent.  Requests being served,
    and those of clients already accepted, are answered (with
    [Connection: close]); a worker waiting on an idle keep-alive client
    drops it at once, and the accept loop wakes at once, both through a
    self-pipe, so [stop] waits out neither an idle client's [read_timeout]
    nor a poll interval. *)

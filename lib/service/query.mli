(** The HTTP query plane: service endpoints over a generation-stamped
    snapshot cache.

    Every high-rate document ([/status], [/matrix], [/metrics],
    [/estimates]) is rendered at most once per store {!Service.generation}:
    a request first reads the atomic generation counter, serves the cached
    bytes lock-free when they are stamped with a generation at least that
    new, and only otherwise takes the {e render} lock (never the service
    mutex on a cache hit) to re-render.  The stamp is the generation read
    {e before} rendering, so a mutation racing a render forces the next
    request to re-render — responses can lag a mutation by at most one
    in-flight render, never serve bytes older than the generation they
    advertise.

    Renders are {e single-flight}: when the cache is stale, exactly one
    request renders and every concurrent request for the same document
    coalesces onto that render's result — an overload burst cannot
    stampede the service mutex.  A coalescing request waits at most
    until its propagated deadline ({!Because_http.Request.t.deadline}),
    then sheds with [503 + Retry-After + X-Queue-Depth] instead of
    queueing invisibly.

    Every 429/503 the plane produces (admission backpressure on
    [POST /submit], shed renders) carries [Retry-After] and
    [X-Queue-Depth] headers — the depth is the admission queue's at
    refusal time.

    Responses carry the stamp in an [X-Generation] header.

    Endpoints:
    {ul
    {- [GET /status] — {!Service.status_json} (JSON);}
    {- [GET /matrix] — the live suspect matrix (plain text);}
    {- [GET /metrics] — Prometheus exposition;}
    {- [GET /estimates?asn=N] — per-AS damping estimates across campaigns
       (omit [asn] for all);}
    {- [GET /campaigns/:id/report] — 200 with the report once done, 202
       while pending, 404 for an unknown id (uncached: reports are
       low-rate and immutable once done);}
    {- [POST /submit] — a spec line; admission rejections map to typed
       status codes (see {!status_of_reason}).}} *)

val status_of_reason : Service.reason -> int
(** [Invalid] 400, [Duplicate] 409, [Queue_full] 429, [Draining] 503. *)

val router :
  ?registry:Because_telemetry.Registry.t -> Service.t -> Because_http.Router.t
(** Build the query-plane router for a service.  The router holds the
    snapshot caches; build it once per service.  [registry] (default
    disabled) receives [http.coalesced] (requests served by another
    request's render) and [http.shed_renders] (requests whose deadline
    expired waiting for a render) counters. *)

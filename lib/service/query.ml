module H = Because_http
module Tel = Because_telemetry.Registry
module Manifest = Because_telemetry.Manifest

let status_of_reason = function
  | Service.Invalid _ -> 400
  | Service.Duplicate _ -> 409
  | Service.Queue_full _ -> 429
  | Service.Draining -> 503

(* One generation-stamped document.  [cache] holds immutable (gen, value)
   pairs swapped atomically, so readers are lock-free; [rendering] makes
   the render single-flight: under overload, any number of concurrent
   requests for a stale doc produce exactly one render, and the rest
   coalesce onto its result (or shed at their deadline). *)
type 'a doc = {
  cache : (int * 'a) option Atomic.t;
  mu : Mutex.t;
  mutable rendering : bool;
  render : unit -> 'a;
}

let doc render =
  { cache = Atomic.make None; mu = Mutex.create (); rendering = false;
    render }

let fresh d g =
  match Atomic.get d.cache with
  | Some ((gen, _) as hit) when gen >= g -> Some hit
  | _ -> None

(* Serve [d] at generation >= the counter's current value.  The stamp is
   read before rendering: a mutation that lands mid-render leaves the
   cached stamp behind the counter, so the next request re-renders.

   Returns [`Hit] (lock-free cache hit), [`Rendered] (this request did
   the render), [`Coalesced] (waited for a concurrent render's result),
   or [`Shed] (the deadline expired while waiting — the caller turns
   this into a 503 with Retry-After rather than letting a stampede pile
   onto one mutex). *)
let snapshot service d ~deadline =
  let g = Service.generation service in
  match fresh d g with
  | Some hit -> `Hit hit
  | None ->
      let rec acquire waited =
        match fresh d g with
        | Some hit -> if waited then `Coalesced hit else `Hit hit
        | None ->
            Mutex.lock d.mu;
            if d.rendering then begin
              Mutex.unlock d.mu;
              let expired =
                match deadline with
                | Some dl -> Unix.gettimeofday () >= dl
                | None -> false
              in
              if expired then `Shed
              else begin
                (* Wait out the in-flight render.  [Condition] has no
                   timed wait in the stdlib, so waiters poll on a short
                   sleep — they are worker threads in the accept domain,
                   and the sleep releases the runtime lock to the
                   renderer. *)
                Thread.delay 0.0002;
                acquire true
              end
            end
            else begin
              match fresh d g with
              | Some hit ->
                  Mutex.unlock d.mu;
                  if waited then `Coalesced hit else `Hit hit
              | None ->
                  d.rendering <- true;
                  Mutex.unlock d.mu;
                  let finish () =
                    Mutex.lock d.mu;
                    d.rendering <- false;
                    Mutex.unlock d.mu
                  in
                  let stamp = Service.generation service in
                  (match d.render () with
                  | v ->
                      let hit = (stamp, v) in
                      Atomic.set d.cache (Some hit);
                      finish ();
                      `Rendered hit
                  | exception e ->
                      finish ();
                      raise e)
            end
      in
      acquire false

let with_generation gen (resp : H.Response.t) =
  { resp with
    H.Response.headers =
      resp.H.Response.headers @ [ ("X-Generation", string_of_int gen) ] }

let estimates_body rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"estimates\": [\n";
  List.iteri
    (fun i (_, row) ->
      Buffer.add_string b "    ";
      Buffer.add_string b row;
      if i < List.length rows - 1 then Buffer.add_char b ',';
      Buffer.add_char b '\n')
    rows;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* Every 429/503 this plane produces carries the backpressure contract:
   Retry-After plus the admission-queue depth at refusal time. *)
let backpressure service (resp : H.Response.t) =
  resp
  |> H.Response.with_header "Retry-After" "1"
  |> H.Response.with_header "X-Queue-Depth"
       (string_of_int (Service.pending service))

let router ?(registry = Tel.disabled) service =
  let coalesced = Tel.Counter.v registry "http.coalesced" in
  let shed_renders = Tel.Counter.v registry "http.shed_renders" in
  let status_doc = doc (fun () -> Service.status_json service) in
  let matrix_doc = doc (fun () -> Service.matrix_text service) in
  let metrics_doc = doc (fun () -> Service.metrics_prom service) in
  let estimates_doc = doc (fun () -> Service.estimates_snapshot service) in
  let serve d req k =
    match snapshot service d ~deadline:req.H.Request.deadline with
    | `Hit (gen, v) | `Rendered (gen, v) -> with_generation gen (k v)
    | `Coalesced (gen, v) ->
        Tel.Counter.incr coalesced;
        with_generation gen (k v)
    | `Shed ->
        Tel.Counter.incr shed_renders;
        backpressure service
          (H.Response.text ~status:503 "snapshot render backlog\n")
  in
  let rt = H.Router.create () in
  H.Router.add rt ~meth:"GET" ~pattern:"/status" (fun req _params ->
      serve status_doc req (fun body -> H.Response.json body));
  H.Router.add rt ~meth:"GET" ~pattern:"/matrix" (fun req _params ->
      serve matrix_doc req (fun body -> H.Response.text body));
  H.Router.add rt ~meth:"GET" ~pattern:"/metrics" (fun req _params ->
      serve metrics_doc req (fun body ->
          H.Response.make 200
            ~headers:
              [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ]
            ~body));
  H.Router.add rt ~meth:"GET" ~pattern:"/estimates" (fun req _params ->
      match H.Request.query_param req "asn" with
      | None ->
          serve estimates_doc req (fun rows ->
              H.Response.json (estimates_body rows))
      | Some raw -> (
          match int_of_string_opt raw with
          | None -> H.Response.text ~status:400 "asn must be an integer\n"
          | Some asn ->
              serve estimates_doc req (fun rows ->
                  let hits = List.filter (fun (a, _) -> a = asn) rows in
                  H.Response.json (estimates_body hits))));
  H.Router.add rt ~meth:"GET" ~pattern:"/campaigns/:id/report"
    (fun _req params ->
      let id = Option.value ~default:"" (List.assoc_opt "id" params) in
      match Service.report_for service ~id with
      | `Unknown -> H.Response.text ~status:404 "unknown campaign\n"
      | `Pending -> H.Response.text ~status:202 "pending\n"
      | `Done report -> H.Response.text report);
  H.Router.add rt ~meth:"POST" ~pattern:"/submit" (fun req _params ->
      match Spec.of_line req.H.Request.body with
      | Error e ->
          H.Response.json ~status:400
            (Printf.sprintf "{ \"error\": \"%s\" }\n"
               (Manifest.json_escape e))
      | Ok spec -> (
          match Service.submit service spec with
          | Ok seq ->
              H.Response.json ~status:202
                (Printf.sprintf "{ \"seq\": %d }\n" seq)
          | Error reason ->
              let status = status_of_reason reason in
              let resp =
                H.Response.json ~status
                  (Printf.sprintf "{ \"error\": \"%s\" }\n"
                     (Manifest.json_escape
                        (Service.reason_to_string reason)))
              in
              if status = 429 || status = 503 then backpressure service resp
              else resp));
  rt

(* Per-domain sharded metric registry.

   The hot path never takes a lock and never touches an atomic: each domain
   owns a shard (plain int/float arrays plus a span ring) reached through
   [Domain.DLS], so concurrent recording under [Parallel.run_tasks]
   work-stealing is race-free by construction.  The registry lock guards
   only metric interning and the shard list — cold paths.  [snapshot] merges
   the shards; counters and gauges sum, histogram buckets add elementwise.

   A disabled registry ([enabled = false]) short-circuits every operation
   before any shard (or clock) is touched: handles are dummies, [Span.with_]
   tail-calls the body.  That is the whole zero-cost-when-off story — the
   instrumented code keeps a single branch per record. *)

type kind = Counter_k | Gauge_k | Histogram_k

type meta = { id : int; name : string; kind : kind }

type span_rec = {
  span_name : string;
  span_domain : int;
  start_ns : int64;
  dur_ns : int64;
}

type shard = {
  shard_domain : int;
  mutable counts : int array;
  mutable gauges : float array;
  mutable gauge_set : bool array;
  mutable hist_buckets : int array array;  (* [||] until first observation *)
  mutable hist_sums : float array;
  spans : span_rec array;                  (* ring buffer *)
  mutable span_next : int;
  mutable span_total : int;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  mutable metas : meta list;               (* newest first *)
  by_name : (string, meta) Hashtbl.t;
  mutable n_counters : int;
  mutable n_gauges : int;
  mutable n_hists : int;
  mutable shard_list : shard list;
  key : shard Domain.DLS.key;
  span_capacity : int;
}

let is_enabled t = t.enabled

let dummy_span = { span_name = ""; span_domain = 0; start_ns = 0L; dur_ns = 0L }

let new_shard reg =
  {
    shard_domain = (Domain.self () :> int);
    counts = Array.make (max 8 reg.n_counters) 0;
    gauges = Array.make (max 8 reg.n_gauges) 0.0;
    gauge_set = Array.make (max 8 reg.n_gauges) false;
    hist_buckets = Array.make (max 4 reg.n_hists) [||];
    hist_sums = Array.make (max 4 reg.n_hists) 0.0;
    spans = Array.make reg.span_capacity dummy_span;
    span_next = 0;
    span_total = 0;
  }

let create ?(span_capacity = 4096) () =
  if span_capacity < 1 then
    invalid_arg "Registry.create: span_capacity must be positive";
  (* The DLS initializer needs the registry it belongs to; tie the knot
     through a holder set immediately after construction. *)
  let holder = ref None in
  let key =
    Domain.DLS.new_key (fun () ->
        match !holder with
        | None -> failwith "Because_telemetry.Registry: shard before init"
        | Some reg ->
            let s = new_shard reg in
            Mutex.protect reg.lock (fun () ->
                reg.shard_list <- s :: reg.shard_list);
            s)
  in
  let reg =
    {
      enabled = true;
      lock = Mutex.create ();
      metas = [];
      by_name = Hashtbl.create 64;
      n_counters = 0;
      n_gauges = 0;
      n_hists = 0;
      shard_list = [];
      key;
      span_capacity;
    }
  in
  holder := Some reg;
  reg

let disabled =
  let key =
    Domain.DLS.new_key (fun () ->
        failwith "Because_telemetry.Registry: disabled registry has no shards")
  in
  {
    enabled = false;
    lock = Mutex.create ();
    metas = [];
    by_name = Hashtbl.create 1;
    n_counters = 0;
    n_gauges = 0;
    n_hists = 0;
    shard_list = [];
    key;
    span_capacity = 0;
  }

let kind_name = function
  | Counter_k -> "counter"
  | Gauge_k -> "gauge"
  | Histogram_k -> "histogram"

(* Interning is the only registration path; a name is bound to one kind for
   the registry's lifetime.  Safe to call concurrently from worker domains
   (flush sites create handles on first use). *)
let intern reg name kind =
  Mutex.protect reg.lock (fun () ->
      match Hashtbl.find_opt reg.by_name name with
      | Some m ->
          if m.kind <> kind then
            invalid_arg
              (Printf.sprintf
                 "Because_telemetry: %S already registered as a %s" name
                 (kind_name m.kind));
          m.id
      | None ->
          let id =
            match kind with
            | Counter_k ->
                let i = reg.n_counters in
                reg.n_counters <- i + 1;
                i
            | Gauge_k ->
                let i = reg.n_gauges in
                reg.n_gauges <- i + 1;
                i
            | Histogram_k ->
                let i = reg.n_hists in
                reg.n_hists <- i + 1;
                i
          in
          let m = { id; name; kind } in
          Hashtbl.replace reg.by_name name m;
          reg.metas <- m :: reg.metas;
          id)

(* Shards are sized for the metrics known when the domain first recorded;
   later registrations grow them on demand: [with_slot arr id default] is
   [arr] when it has slot [id], otherwise a copy grown past [id] whose new
   slots hold [default]. *)
let with_slot arr id default =
  let len = Array.length arr in
  if id < len then arr
  else begin
    let grown = Array.make (max (id + 1) (2 * max 1 len)) default in
    Array.blit arr 0 grown 0 len;
    grown
  end

module Counter = struct
  type handle = { c_reg : t; c_id : int }

  let v reg name =
    if not reg.enabled then { c_reg = reg; c_id = -1 }
    else { c_reg = reg; c_id = intern reg name Counter_k }

  let add h n =
    if h.c_reg.enabled && n <> 0 then begin
      let s = Domain.DLS.get h.c_reg.key in
      s.counts <- with_slot s.counts h.c_id 0;
      s.counts.(h.c_id) <- s.counts.(h.c_id) + n
    end

  let incr h = add h 1
end

module Gauge = struct
  type handle = { g_reg : t; g_id : int }

  let v reg name =
    if not reg.enabled then { g_reg = reg; g_id = -1 }
    else { g_reg = reg; g_id = intern reg name Gauge_k }

  let set h x =
    if h.g_reg.enabled then begin
      let s = Domain.DLS.get h.g_reg.key in
      s.gauges <- with_slot s.gauges h.g_id 0.0;
      s.gauge_set <- with_slot s.gauge_set h.g_id false;
      s.gauges.(h.g_id) <- x;
      s.gauge_set.(h.g_id) <- true
    end
end

module Histogram = struct
  type handle = { h_reg : t; h_id : int }

  let v reg name =
    if not reg.enabled then { h_reg = reg; h_id = -1 }
    else { h_reg = reg; h_id = intern reg name Histogram_k }

  let observe h x =
    if h.h_reg.enabled then begin
      let s = Domain.DLS.get h.h_reg.key in
      s.hist_buckets <- with_slot s.hist_buckets h.h_id [||];
      s.hist_sums <- with_slot s.hist_sums h.h_id 0.0;
      if Array.length s.hist_buckets.(h.h_id) = 0 then
        s.hist_buckets.(h.h_id) <- Array.make Snapshot.n_buckets 0;
      let b = Snapshot.bucket_of x in
      s.hist_buckets.(h.h_id).(b) <- s.hist_buckets.(h.h_id).(b) + 1;
      s.hist_sums.(h.h_id) <- s.hist_sums.(h.h_id) +. x
    end
end

module Span = struct
  let record reg ~name ~start_ns ~dur_ns =
    let s = Domain.DLS.get reg.key in
    let cap = Array.length s.spans in
    if cap > 0 then begin
      s.spans.(s.span_next) <-
        { span_name = name; span_domain = s.shard_domain; start_ns; dur_ns };
      s.span_next <- (s.span_next + 1) mod cap;
      s.span_total <- s.span_total + 1
    end

  let with_ reg ~name f =
    if not reg.enabled then f ()
    else begin
      let t0 = Monotonic_clock.now () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = Monotonic_clock.now () in
          record reg ~name ~start_ns:t0 ~dur_ns:(Int64.sub t1 t0))
        f
    end
end

(* ------------------------------------------------------------------ *)
(* Snapshot                                                             *)

let shard_counter s id = if id < Array.length s.counts then s.counts.(id) else 0

let shard_gauge s id =
  if id < Array.length s.gauges && s.gauge_set.(id) then Some s.gauges.(id)
  else None

let shard_hist s id =
  if id < Array.length s.hist_buckets
     && Array.length s.hist_buckets.(id) > 0
  then Some (s.hist_buckets.(id), s.hist_sums.(id))
  else None

(* Ring contents oldest-first. *)
let shard_spans s =
  let cap = Array.length s.spans in
  if cap = 0 || s.span_total = 0 then []
  else if s.span_total <= cap then
    Array.to_list (Array.sub s.spans 0 s.span_total)
  else
    List.init cap (fun k -> s.spans.((s.span_next + k) mod cap))

let snapshot reg =
  if not reg.enabled then Snapshot.empty
  else
    let metas, shards =
      Mutex.protect reg.lock (fun () -> (List.rev reg.metas, reg.shard_list))
    in
    (* Domain ids are never reused, so this order is stable and the float
       sums below are deterministic for a given set of shards. *)
    let shards =
      List.sort (fun a b -> Int.compare a.shard_domain b.shard_domain) shards
    in
    let counters = ref [] and gauges = ref [] and hists = ref [] in
    List.iter
      (fun m ->
        match m.kind with
        | Counter_k ->
            let total =
              List.fold_left (fun acc s -> acc + shard_counter s m.id) 0 shards
            in
            counters := (m.name, total) :: !counters
        | Gauge_k ->
            let seen = ref false and total = ref 0.0 in
            List.iter
              (fun s ->
                match shard_gauge s m.id with
                | Some v ->
                    seen := true;
                    total := !total +. v
                | None -> ())
              shards;
            if !seen then gauges := (m.name, !total) :: !gauges
        | Histogram_k ->
            let acc = ref None in
            List.iter
              (fun s ->
                match shard_hist s m.id with
                | Some (buckets, sum) ->
                    let h =
                      Snapshot.hist_of_buckets (Array.copy buckets) ~sum
                    in
                    acc :=
                      Some
                        (match !acc with
                        | None -> h
                        | Some prev -> Snapshot.merge_hist prev h)
                | None -> ())
              shards;
            (match !acc with
            | Some h -> hists := (m.name, h) :: !hists
            | None -> ()))
      metas;
    let by_name (a, _) (b, _) = String.compare a b in
    let spans =
      List.concat_map shard_spans shards
      |> List.stable_sort (fun a b -> Int64.compare a.start_ns b.start_ns)
      |> List.map (fun r ->
             {
               Snapshot.name = r.span_name;
               domain = r.span_domain;
               start_ns = r.start_ns;
               dur_ns = r.dur_ns;
             })
    in
    let dropped =
      List.fold_left
        (fun acc s -> acc + max 0 (s.span_total - Array.length s.spans))
        0 shards
    in
    {
      Snapshot.counters = List.sort by_name !counters;
      gauges = List.sort by_name !gauges;
      hists = List.sort by_name !hists;
      spans;
      dropped_spans = dropped;
    }

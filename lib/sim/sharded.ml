open Because_bgp
module Parallel = Because_stats.Parallel
module Tel = Because_telemetry.Registry

(* A shard's collected vantage feeds, ascending ASN. *)
type feed_store = (Asn.t * (float * Update.t) list) list

let store_feed store asn =
  match List.assoc_opt asn store with Some e -> e | None -> []

type result = {
  stats : Network.stats;
  fault_log : (float * Network.fault_event) list;
  events : int;
  shards : int;
  shard_events : int array;
  monitored : Asn.Set.t;
  stores : feed_store array;  (* one per shard, indexed by prefix rank *)
}

type shard_result = {
  shard_feeds : feed_store;
  shard_stats : Network.stats;
  shard_fault_log : (float * Network.fault_event) list;
  shard_events_count : int;
}

(* The checkpoint layer lives above this library (it needs serializers for
   Update values and a durable store); the simulator only knows how to ask
   it for a finished shard and how to hand one over.  Keyed by (shard,
   shards), where [shards] is the prefix count: a result saved under a
   different count belongs to another partition and must not be reused. *)
type checkpoint_hooks = {
  load_shard : shard:int -> shards:int -> shard_result option;
  save_shard : shard:int -> shards:int -> shard_result -> unit;
}

(* K-way merge of lists each in time order, through a binary heap of list
   indices keyed on their heads' times.  Equal times leave the lower index
   first, so the result is the stable sort on time of the lists'
   concatenation.  Times are never NaN, so the float comparisons order them
   as [Float.compare] does, inline. *)
let merge_ordered (lists : (float * _) list list) =
  let heads = Array.of_list (List.filter (fun l -> l <> []) lists) in
  let n = ref (Array.length heads) in
  let heap = Array.init !n Fun.id in
  let before i j =
    match (heads.(i), heads.(j)) with
    | (x, _) :: _, (y, _) :: _ -> x < y || (x = y && i < j)
    | _ -> assert false
  in
  let rec sift_down k =
    let l = (2 * k) + 1 in
    if l < !n then begin
      let c =
        if l + 1 < !n && before heap.(l + 1) heap.(l) then l + 1 else l
      in
      if before heap.(c) heap.(k) then begin
        let top = heap.(k) in
        heap.(k) <- heap.(c);
        heap.(c) <- top;
        sift_down c
      end
    end
  in
  for k = (!n / 2) - 1 downto 0 do
    sift_down k
  done;
  let[@tail_mod_cons] rec drain () =
    if !n = 0 then []
    else
      let i = heap.(0) in
      match heads.(i) with
      | x :: rest ->
          heads.(i) <- rest;
          (match rest with
          | [] ->
              decr n;
              heap.(0) <- heap.(!n)
          | _ :: _ -> ());
          sift_down 0;
          x :: drain ()
      | [] -> assert false
  in
  match heads with [| only |] -> only | _ -> drain ()

(* A shard holds one prefix and records its entries at nondecreasing event
   times; its index is the prefix's first-touch rank, so the merge orders
   cross-prefix ties by rank. *)
let feed result asn =
  merge_ordered
    (Array.to_list
       (Array.map (fun store -> store_feed store asn) result.stores))

let feeds result =
  Asn.Set.fold
    (fun asn acc -> (asn, feed result asn) :: acc)
    result.monitored []
  |> List.rev

let collect net monitored =
  Asn.Set.fold (fun asn acc -> (asn, Network.feed net asn) :: acc) monitored []
  |> List.rev

(* Update loss/duplication is per-prefix traffic; link and session
   transitions are not. *)
let per_prefix (_, ev) =
  match ev with
  | Network.Fault_update_lost _ | Network.Fault_update_duplicated _ -> true
  | Network.Fault_link_down _ | Network.Fault_link_up _
  | Network.Fault_session_reset _ | Network.Fault_session_down _
  | Network.Fault_session_up _ -> false

(* Merge per-shard fault logs, each chronological.  Link/session
   transitions replay identically in every shard (the session layer is
   prefix-agnostic), so shard 0 speaks for all of them; update
   loss/duplication is per-shard traffic and is kept from every shard.
   Equal times order the transitions first, then the shards by index, which
   is prefix rank. *)
let merge_fault_logs = function
  | [] -> invalid_arg "Sharded: no shards"
  | first :: _ as logs ->
      merge_ordered
        (List.filter (fun e -> not (per_prefix e)) first
        :: List.map (List.filter per_prefix) logs)

let merge_stats (per_shard : Network.stats list) : Network.stats =
  match per_shard with
  | [] -> invalid_arg "Sharded: no shards"
  | first :: _ ->
      let sum f = List.fold_left (fun acc s -> acc + f s) 0 per_shard in
      {
        Network.deliveries = sum (fun s -> s.Network.deliveries);
        announcements = sum (fun s -> s.Network.announcements);
        withdrawals = sum (fun s -> s.Network.withdrawals);
        lost = sum (fun s -> s.Network.lost);
        duplicated = sum (fun s -> s.Network.duplicated);
        (* Identical in every shard: count once. *)
        session_drops = first.Network.session_drops;
        session_recoveries = first.Network.session_recoveries;
      }

(* Flush one finished shard's simulation counters into the telemetry
   registry.  Runs inside the worker domain that owned the shard, so every
   record lands in that domain's own telemetry shard — no atomics, no
   contention.  The session layer replays identically in every shard, so
   its counters (like merge_stats) are spoken for by shard 0 alone. *)
let flush_shard_telemetry reg ~shard net =
  if Tel.is_enabled reg then begin
    let c name n = Tel.Counter.add (Tel.Counter.v reg name) n in
    let st = Network.stats net in
    let events = Network.events_processed net in
    c "sim.events" events;
    c "sim.deliveries" st.Network.deliveries;
    c "sim.announcements" st.Network.announcements;
    c "sim.withdrawals" st.Network.withdrawals;
    c "sim.updates_lost" st.Network.lost;
    c "sim.updates_duplicated" st.Network.duplicated;
    if shard = 0 then begin
      c "sim.session_drops" st.Network.session_drops;
      c "sim.session_recoveries" st.Network.session_recoveries
    end;
    let supp, rel = Network.rfd_stats net in
    c "sim.rfd_suppressions" supp;
    c "sim.rfd_releases" rel;
    Tel.Histogram.observe
      (Tel.Histogram.v reg "sim.shard_events")
      (float_of_int events)
  end

(* What a simulated shard's network held when it finished: its router
   tables and the high-water mark of its event queue. *)
type shard_load = { tables : Router.table_sizes; queue_depth : int }

(* A gauge keeps the last value written per domain and sums over domains,
   and one domain may run many shards; so the gauges are set once, from the
   calling domain: table sizes summed over the simulated shards, the queue
   depth as their maximum. *)
let flush_load_telemetry reg loads =
  if loads <> [] then begin
    let g name v = Tel.Gauge.set (Tel.Gauge.v reg name) (float_of_int v) in
    let sum f = List.fold_left (fun acc l -> acc + f l.tables) 0 loads in
    g "sim.tables.rib_in" (sum (fun t -> t.Router.rib_in_entries));
    g "sim.tables.rfd" (sum (fun t -> t.Router.rfd_states));
    g "sim.tables.adj_out" (sum (fun t -> t.Router.adj_out_entries));
    g "sim.tables.mrai" (sum (fun t -> t.Router.mrai_states));
    g "sim.tables.loc_rib" (sum (fun t -> t.Router.loc_rib_entries));
    g "sim.max_queue_depth"
      (List.fold_left (fun acc l -> max acc l.queue_depth) 0 loads)
  end

let count_restored telemetry =
  if Tel.is_enabled telemetry then
    Tel.Counter.add (Tel.Counter.v telemetry "sim.shards_restored") 1

(* Run one shard, preferring its saved result.  A restored shard skips
   network construction and replay entirely.  The load is measured only
   for a live registry. *)
let run_shard ~fault_seed ~checkpoint ~telemetry ~configs ~delay ~monitored
    ~until ~partition ~shard ~shards () =
  let restored =
    match checkpoint with
    | Some h -> h.load_shard ~shard ~shards
    | None -> None
  in
  match restored with
  | Some sr ->
      count_restored telemetry;
      (sr, None)
  | None ->
      let net = Network.create ~fault_seed ~configs ~delay ~monitored () in
      Script.replay (Script.shard_ops partition shard) net;
      Tel.Span.with_ telemetry
        ~name:(Printf.sprintf "sim.shard%d.replay" shard) (fun () ->
          Network.run net ~until);
      flush_shard_telemetry telemetry ~shard net;
      let sr =
        {
          shard_feeds = collect net monitored;
          shard_stats = Network.stats net;
          shard_fault_log = Network.fault_log net;
          shard_events_count = Network.events_processed net;
        }
      in
      (match checkpoint with
      | Some h -> h.save_shard ~shard ~shards sr
      | None -> ());
      let load =
        if Tel.is_enabled telemetry then
          Some
            { tables = Network.table_totals net;
              queue_depth = Network.max_queue_depth net }
        else None
      in
      (sr, load)

let run ?(fault_seed = 0) ?(telemetry = Tel.disabled) ?checkpoint ~jobs
    ~configs ~delay ~monitored ~until script =
  if jobs < 1 then invalid_arg "Sharded.run: jobs must be positive";
  (* One shard per prefix, an empty script one shard.  [jobs] only bounds
     how many shard networks are live at once: the work-stealing pool runs
     at most [jobs] and queues the rest. *)
  let partition = Script.partition script in
  let shards = Script.n_shards partition in
  let tasks =
    Array.init shards (fun shard () ->
        run_shard ~fault_seed ~checkpoint ~telemetry ~configs ~delay
          ~monitored ~until ~partition ~shard ~shards ())
  in
  let ran = Parallel.run_tasks ~jobs tasks in
  flush_load_telemetry telemetry
    (List.filter_map snd (Array.to_list ran));
  let results = Array.map fst ran in
  Tel.Span.with_ telemetry ~name:"sim.merge" (fun () ->
      {
        stats =
          merge_stats
            (Array.to_list (Array.map (fun sr -> sr.shard_stats) results));
        fault_log =
          merge_fault_logs
            (Array.to_list (Array.map (fun sr -> sr.shard_fault_log) results));
        events =
          Array.fold_left (fun acc sr -> acc + sr.shard_events_count) 0 results;
        shards;
        shard_events = Array.map (fun sr -> sr.shard_events_count) results;
        monitored;
        stores = Array.map (fun sr -> sr.shard_feeds) results;
      })

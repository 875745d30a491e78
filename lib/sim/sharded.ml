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
  rank_of : Prefix.t -> int;
  stores : feed_store array;  (* one per shard *)
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
   shards): a result saved under a different shard count partitions the
   prefixes differently and must not be reused. *)
type checkpoint_hooks = {
  load_shard : shard:int -> shards:int -> shard_result option;
  save_shard : shard:int -> shards:int -> shard_result -> unit;
}

(* Merge one vantage's per-shard entries.  Entries of a given prefix all
   live in one shard, in their sequential relative order; the cross-prefix
   interleave is reconstructed by time with the prefix's first-touch rank
   breaking ties.  A stable sort on that key keeps each prefix's own order,
   so every shard count, one included, gives the same feed. *)
let entry_order rank_of (ta, ua) (tb, ub) =
  match Float.compare ta tb with
  | 0 -> Int.compare (rank_of (Update.prefix ua)) (rank_of (Update.prefix ub))
  | c -> c

let rec ordered cmp = function
  | a :: (b :: _ as rest) -> cmp a b <= 0 && ordered cmp rest
  | [] | [ _ ] -> true

let feed result asn =
  let order = entry_order result.rank_of in
  match result.stores with
  | [| store |] ->
      (* One shard: recording order, which a fault can leave with two
         prefixes out of rank order at one instant.  Sort only then. *)
      let entries = store_feed store asn in
      if ordered order entries then entries else List.stable_sort order entries
  | stores ->
      List.stable_sort order
        (List.concat_map (fun store -> store_feed store asn)
           (Array.to_list stores))

let feeds result =
  Asn.Set.fold
    (fun asn acc -> (asn, feed result asn) :: acc)
    result.monitored []
  |> List.rev

let collect net monitored =
  Asn.Set.fold (fun asn acc -> (asn, Network.feed net asn) :: acc) monitored []
  |> List.rev

(* The prefix of an update loss/duplication entry; [None] for link and
   session transitions. *)
let fault_prefix = function
  | Network.Fault_update_lost { prefix; _ }
  | Network.Fault_update_duplicated { prefix; _ } -> Some prefix
  | Network.Fault_link_down _ | Network.Fault_link_up _
  | Network.Fault_session_reset _ | Network.Fault_session_down _
  | Network.Fault_session_up _ -> None

(* Merge per-shard fault logs.  Link/session transitions replay identically
   in every shard (the session layer is prefix-agnostic), so shard 0 speaks
   for all of them; update loss/duplication is per-shard traffic and is kept
   from every shard.  A stable sort then orders them by time, equal times
   by prefix rank with link/session transitions first, so the merged log
   is the same for every partition (including a single shard). *)
let merge_fault_logs rank_of logs =
  let rank (_, ev) = Option.fold ~none:(-1) ~some:rank_of (fault_prefix ev) in
  let per_shard =
    List.mapi
      (fun i log ->
        if i = 0 then log
        else List.filter (fun (_, ev) -> fault_prefix ev <> None) log)
      logs
  in
  List.stable_sort
    (fun ((ta, _) as a) ((tb, _) as b) ->
      match Float.compare ta tb with
      | 0 -> Int.compare (rank a) (rank b)
      | c -> c)
    (List.concat per_shard)

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
    let g name v = Tel.Gauge.set (Tel.Gauge.v reg name) v in
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
    let ts = Network.table_totals net in
    g "sim.tables.rib_in" (float_of_int ts.Router.rib_in_entries);
    g "sim.tables.rfd" (float_of_int ts.Router.rfd_states);
    g "sim.tables.adj_out" (float_of_int ts.Router.adj_out_entries);
    g "sim.tables.mrai" (float_of_int ts.Router.mrai_states);
    g "sim.tables.loc_rib" (float_of_int ts.Router.loc_rib_entries);
    Tel.Histogram.observe
      (Tel.Histogram.v reg "sim.shard_events")
      (float_of_int events);
    g (Printf.sprintf "sim.shard%d.events" shard) (float_of_int events);
    g
      (Printf.sprintf "sim.shard%d.max_queue_depth" shard)
      (float_of_int (Network.max_queue_depth net))
  end

let count_restored telemetry =
  if Tel.is_enabled telemetry then
    Tel.Counter.add (Tel.Counter.v telemetry "sim.shards_restored") 1

(* Run one shard, preferring its saved result.  A restored shard skips
   network construction and replay entirely. *)
let run_shard ~fault_seed ~checkpoint ~telemetry ~configs ~delay ~monitored
    ~until ~script ~keep ~shard ~shards () =
  let restored =
    match checkpoint with
    | Some h -> h.load_shard ~shard ~shards
    | None -> None
  in
  match restored with
  | Some sr ->
      count_restored telemetry;
      sr
  | None ->
      let net = Network.create ~fault_seed ~configs ~delay ~monitored () in
      Script.install ?keep script net;
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
      sr

let run ?(fault_seed = 0) ?(telemetry = Tel.disabled) ?checkpoint ?shards
    ~jobs ~configs ~delay ~monitored ~until script =
  if jobs < 1 then invalid_arg "Sharded.run: jobs must be positive";
  (match shards with
  | Some s when s < 1 -> invalid_arg "Sharded.run: shards must be positive"
  | _ -> ());
  let n_prefixes = Script.n_prefixes script in
  (* Default one shard per pool seat; an explicit [shards] may exceed [jobs]
     — the work-stealing pool then runs at most [jobs] shard networks at a
     time and queues the rest, so peak live state is bounded by the seat
     count, not the shard count. *)
  let shards =
    max 1 (min (Option.value shards ~default:jobs) n_prefixes)
  in
  let rank_of prefix =
    match Script.rank script prefix with Some r -> r | None -> max_int
  in
  let shard_of prefix =
    match Script.rank script prefix with Some r -> r mod shards | None -> 0
  in
  (* A lone shard replays the full script unfiltered, in recording order. *)
  let keep shard =
    if shards > 1 then Some (fun p -> shard_of p = shard) else None
  in
  let tasks =
    Array.init shards (fun shard () ->
        run_shard ~fault_seed ~checkpoint ~telemetry ~configs ~delay
          ~monitored ~until ~script ~keep:(keep shard) ~shard ~shards ())
  in
  let results = Parallel.run_tasks ~jobs tasks in
  Tel.Span.with_ telemetry ~name:"sim.merge" (fun () ->
      {
        stats =
          merge_stats
            (Array.to_list (Array.map (fun sr -> sr.shard_stats) results));
        fault_log =
          merge_fault_logs rank_of
            (Array.to_list (Array.map (fun sr -> sr.shard_fault_log) results));
        events =
          Array.fold_left (fun acc sr -> acc + sr.shard_events_count) 0 results;
        shards;
        shard_events = Array.map (fun sr -> sr.shard_events_count) results;
        monitored;
        rank_of;
        stores = Array.map (fun sr -> sr.shard_feeds) results;
      })

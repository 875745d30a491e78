type neighbor = {
  neighbor_asn : Asn.t;
  relationship : Policy.relationship;
  mrai : float;
}

type config = {
  asn : Asn.t;
  neighbors : neighbor list;
  rfd_scope : Policy.rfd_scope;
  rfd_params : Rfd_params.t;
}

type best =
  | Origin of Update.aggregator option
  | Via of {
      from_asn : Asn.t;
      relationship : Policy.relationship;
      as_path : Apath.t;
      aggregator : Update.aggregator option;
    }

type action =
  | Send of { slot : int; update : Update.t }
  | Set_reuse_timer of { slot : int; prefix : Prefix.t; at : float }
  | Set_mrai_timer of { slot : int; prefix : Prefix.t; at : float }
  | Feed of Update.t

type rib_in_entry = {
  in_path : Apath.t;
  in_aggregator : Update.aggregator option;
}

type mrai_state = {
  mutable gate_until : float;  (* announcements blocked before this time *)
  mutable pending : bool;      (* a flush timer is armed *)
}

module Ptbl = Hashtbl.Make (struct
  type t = Prefix.t

  let equal = Prefix.equal
  let hash = Prefix.hash
end)

module Atbl = Hashtbl.Make (struct
  type t = Asn.t

  let equal = Asn.equal
  let hash a = Asn.to_int a * 0x9E3779B1 land max_int
end)

let rel_index = function
  | Policy.Customer -> 0
  | Policy.Peer -> 1
  | Policy.Provider -> 2

(* One neighbor session: the static config plus its policy decisions,
   computed once. *)
type neighbor_state = {
  nb : neighbor;
  local_pref : int;                       (* Policy.local_pref nb.relationship *)
  damps : bool;                           (* RFD applies on this session *)
  export_from : bool array;               (* learned relationship -> export ok *)
}

(* Everything the router holds for one prefix, behind a single prefix
   lookup.  The per-session slots are arrays indexed by the dense neighbor
   id; an absent slot holds a physical sentinel ([no_entry], [no_rfd],
   [never_sent], [no_mrai], [no_route]) rather than an option, so the
   decision process and the export are plain array scans. *)
type row = {
  prefix : Prefix.t;
  rib_in : rib_in_entry array;            (* adj-RIB-in *)
  rfd : Rfd.t array;                      (* [||] if no session damps *)
  adj_out : Update.t array;               (* last update sent *)
  mrai : mrai_state array;
  mutable origin : best;                  (* [Origin _] iff originated here *)
  mutable best : best;                    (* loc-RIB *)
  mutable last_feed : Update.t;           (* last observation, if monitored *)
}

(* Always-on tallies for the rare RFD state transitions; a couple of int
   writes per suppression keeps them off the telemetry fast-path budget. *)
type stats = {
  mutable rfd_suppressions : int;
  mutable rfd_releases : int;
}

type table_sizes = {
  rib_in_entries : int;
  rfd_states : int;
  adj_out_entries : int;
  mrai_states : int;
  loc_rib_entries : int;
}

type t = {
  cfg : config;
  nstates : neighbor_state array;         (* in config order *)
  index_of : int Atbl.t;                  (* neighbor ASN -> nstates index *)
  rows : row Ptbl.t;
  damping : bool;                         (* some session damps *)
  monitored : bool;                       (* a vantage listens here *)
  stats : stats;
}

(* The sentinels, all compared physically. *)
let no_entry = { in_path = Apath.empty; in_aggregator = None }
let no_rfd = Rfd.create Rfd_params.cisco
let no_mrai = { gate_until = 0.0; pending = false }  (* never mutated *)

(* No loc-RIB route, and not originated.  Built at run time so that no
   [Origin] the router builds can share its block. *)
let no_route = Origin (Sys.opaque_identity None)

(* What a neighbor's adj-RIB-out holds before anything was sent, and what a
   vantage has observed before its first feed: a withdraw, so it reads as
   already withdrawn and equals no announcement. *)
let never_sent = Update.Withdraw { prefix = Prefix.of_string "0.0.0.0/0" }

let create ?(monitored = true) cfg =
  let n = List.length cfg.neighbors in
  let index_of = Atbl.create (2 * max 1 n) in
  let make_state nb =
    if Asn.equal nb.neighbor_asn cfg.asn then
      invalid_arg "Router.create: self-neighboring";
    if Atbl.mem index_of nb.neighbor_asn then
      invalid_arg "Router.create: duplicate neighbor";
    Atbl.replace index_of nb.neighbor_asn (Atbl.length index_of);
    {
      nb;
      local_pref = Policy.local_pref nb.relationship;
      damps =
        Policy.rfd_applies cfg.rfd_scope ~neighbor:nb.neighbor_asn
          ~relationship:nb.relationship;
      export_from =
        Array.map
          (fun learned ->
            Policy.export_ok ~learned_from:(Some learned)
              ~towards:nb.relationship)
          [| Policy.Customer; Policy.Peer; Policy.Provider |];
    }
  in
  let nstates =
    (* Fold left so dense ids follow config order. *)
    List.fold_left (fun acc nb -> make_state nb :: acc) [] cfg.neighbors
    |> List.rev |> Array.of_list
  in
  (* The row table starts tiny and grows with the prefixes actually heard:
     at Internet scale most routers carry a small slice of the prefix
     universe, and pre-sizing for the worst case would cost hundreds of
     megabytes before the first update flows. *)
  {
    cfg;
    nstates;
    index_of;
    rows = Ptbl.create 8;
    damping = Array.exists (fun ns -> ns.damps) nstates;
    monitored;
    stats = { rfd_suppressions = 0; rfd_releases = 0 };
  }

let asn t = t.cfg.asn
let config t = t.cfg
let stats t = t.stats

let row_of t prefix =
  match Ptbl.find t.rows prefix with
  | row -> row
  | exception Not_found ->
      let n = Array.length t.nstates in
      let row =
        {
          prefix;
          rib_in = Array.make n no_entry;
          rfd = (if t.damping then Array.make n no_rfd else [||]);
          adj_out = Array.make n never_sent;
          mrai = Array.make n no_mrai;
          origin = no_route;
          best = no_route;
          last_feed = never_sent;
        }
      in
      Ptbl.add t.rows prefix row;
      row

let table_sizes t =
  let count absent slots =
    Array.fold_left (fun k x -> if x == absent then k else k + 1) 0 slots
  in
  let sum f = Ptbl.fold (fun _ row acc -> acc + f row) t.rows 0 in
  {
    rib_in_entries = sum (fun row -> count no_entry row.rib_in);
    rfd_states = sum (fun row -> count no_rfd row.rfd);
    adj_out_entries = sum (fun row -> count never_sent row.adj_out);
    mrai_states = sum (fun row -> count no_mrai row.mrai);
    loc_rib_entries = sum (fun row -> if row.best == no_route then 0 else 1);
  }

let slot t asn_ =
  match Atbl.find t.index_of asn_ with
  | i -> i
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Router %s: %s is not a neighbor"
           (Asn.to_string t.cfg.asn) (Asn.to_string asn_))

let find_rfd t ~slot ~prefix =
  match Ptbl.find t.rows prefix with
  | exception Not_found -> None
  | row ->
      if (not t.damping) || row.rfd.(slot) == no_rfd then None
      else Some (row, row.rfd.(slot))

let rfd_state t ~slot ~prefix = Option.map snd (find_rfd t ~slot ~prefix)

let rfd_state_ensure t row i =
  let s = row.rfd.(i) in
  if s != no_rfd then s
  else begin
    let s = Rfd.create t.cfg.rfd_params in
    row.rfd.(i) <- s;
    s
  end

let is_suppressing t ~now =
  (* Stops at the first suppressed entry. *)
  Seq.exists
    (fun row ->
      Array.exists (fun s -> s != no_rfd && Rfd.suppressed s ~now) row.rfd)
    (Ptbl.to_seq_values t.rows)

let best_route t prefix =
  match Ptbl.find t.rows prefix with
  | row when row.best != no_route -> Some row.best
  | _ | (exception Not_found) -> None

(* ------------------------------------------------------------------ *)
(* Decision process                                                     *)

(* Whether the route held from session [i] survives damping.
   [Rfd.suppressed] refreshes the penalty state, so it runs for every held
   route whose session has a state for the prefix. *)
let not_suppressed t row i ~now =
  (not t.damping)
  ||
  let s = Array.unsafe_get row.rfd i in
  s == no_rfd || not (Rfd.suppressed s ~now)

(* Gao–Rexford selection over the row's adj-RIB-in: highest local-pref, then
   shortest path (O(1) via the interned length), then lowest ASN.  The
   winner is tracked by index.  When it equals the current loc-RIB route,
   that route itself is returned, so a caller sees a change as a physical
   inequality and an unchanged winner allocates nothing. *)
let decide t ~now row =
  let current = row.best in
  if row.origin != no_route then
    match (current, row.origin) with
    | Origin x, Origin y
      when current != no_route && Update.aggregator_equal x y ->
        current
    | _ -> row.origin
  else begin
    let nstates = t.nstates and rib_in = row.rib_in in
    let w = ref (-1) and w_entry = ref no_entry in
    let w_pref = ref min_int and w_len = ref max_int in
    let w_asn = ref Asn.(of_int 0) in
    for i = 0 to Array.length nstates - 1 do
      let entry = Array.unsafe_get rib_in i in
      if entry != no_entry && not_suppressed t row i ~now then begin
        let ns = Array.unsafe_get nstates i in
        let pref = ns.local_pref in
        let len = Apath.length entry.in_path in
        let better =
          !w < 0
          ||
          if pref <> !w_pref then pref > !w_pref
          else if len <> !w_len then len < !w_len
          else Asn.compare ns.nb.neighbor_asn !w_asn < 0
        in
        if better then begin
          w := i;
          w_entry := entry;
          w_pref := pref;
          w_len := len;
          w_asn := ns.nb.neighbor_asn
        end
      end
    done;
    if !w < 0 then no_route
    else
      let nb = nstates.(!w).nb and entry = !w_entry in
      match current with
      | Via v
        when Asn.equal v.from_asn nb.neighbor_asn
             && Apath.equal v.as_path entry.in_path
             && Update.aggregator_equal v.aggregator entry.in_aggregator ->
          current
      | Origin _ | Via _ ->
          Via
            {
              from_asn = nb.neighbor_asn;
              relationship = nb.relationship;
              as_path = entry.in_path;
              aggregator = entry.in_aggregator;
            }
  end

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

(* The exported update is identical towards every neighbor (the AS prepends
   itself to the best path regardless of the receiver), so one
   reconsideration builds a single announce and a single withdraw and
   shares them across neighbors and the feed — at 10k ASs with high-degree
   transit cores, per-neighbor copies would be the dominant allocation of
   the delivery hot path.  With no best route the export is the withdraw. *)
let export_of t row ~withdraw =
  if row.best == no_route then withdraw
  else
    let as_path, aggregator =
      match row.best with
      | Origin aggregator -> ([ t.cfg.asn ], aggregator)
      | Via v -> (t.cfg.asn :: Apath.nodes v.as_path, v.aggregator)
    in
    Update.Announce { prefix = row.prefix; as_path; aggregator }

(* Whether [best] is advertised towards the neighbor: never back over the
   session it was learned on (split horizon), otherwise as the precomputed
   per-(learned relationship, neighbor) valley-free bit says. *)
let exports_towards best ns =
  best != no_route
  &&
  match best with
  | Origin _ -> true
  | Via v ->
      (not (Asn.equal v.from_asn ns.nb.neighbor_asn))
      && ns.export_from.(rel_index v.relationship)

let mrai_state_of row i =
  let ms = row.mrai.(i) in
  if ms != no_mrai then ms
  else begin
    let ms = { gate_until = 0.0; pending = false } in
    row.mrai.(i) <- ms;
    ms
  end

(* Push the loc-RIB state towards neighbor [i], respecting MRAI for
   announcements.  Conses the resulting action, if any, onto [acc]. *)
let sync_neighbor t ~now row i ~export ~withdraw acc =
  let ns = t.nstates.(i) in
  let previously = row.adj_out.(i) in
  if not (exports_towards row.best ns) then begin
    if not (Update.is_announce previously) then acc (* already withdrawn *)
    else begin
      (* Withdrawals bypass MRAI (RFC 4271 §9.2.1.1). *)
      row.adj_out.(i) <- withdraw;
      Send { slot = i; update = withdraw } :: acc
    end
  end
  else if Update.equal previously export then acc
  else begin
    let ms = mrai_state_of row i in
    if ns.nb.mrai <= 0.0 || now >= ms.gate_until then begin
      ms.gate_until <- now +. ns.nb.mrai;
      row.adj_out.(i) <- export;
      Send { slot = i; update = export } :: acc
    end
    else if ms.pending then acc
    else begin
      ms.pending <- true;
      Set_mrai_timer { slot = i; prefix = row.prefix; at = ms.gate_until }
      :: acc
    end
  end

(* One neighbor's re-sync outside a reconsideration. *)
let sync_one t ~now row i =
  let withdraw = Update.Withdraw { prefix = row.prefix } in
  let export = export_of t row ~withdraw in
  sync_neighbor t ~now row i ~export ~withdraw []

(* A vantage observes the export (the withdraw when there is no best
   route).  Only a monitored router records observations; elsewhere
   nothing listens, so no observation is built. *)
let feed_action t row ~export acc =
  if not t.monitored then acc
  else
    let prev = row.last_feed in
    let same =
      if prev == never_sent then
        (* A withdraw for a never-announced prefix is not an observation. *)
        not (Update.is_announce export)
      else Update.equal prev export
    in
    if same then acc
    else begin
      row.last_feed <- export;
      Feed export :: acc
    end

(* Actions: one per neighbor that needs a message or a timer, in config
   order, then the feed observation. *)
let reconsider t ~now row =
  let best = decide t ~now row in
  if best == row.best then []
  else begin
    row.best <- best;
    let withdraw = Update.Withdraw { prefix = row.prefix } in
    let export = export_of t row ~withdraw in
    let acc = ref (feed_action t row ~export []) in
    for i = Array.length t.nstates - 1 downto 0 do
      acc := sync_neighbor t ~now row i ~export ~withdraw !acc
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

(* [path] is the received route ([None]: a withdrawal or a looped path). *)
let classify_rfd_event existing path aggregator =
  match path with
  | None -> if existing == no_entry then None else Some Rfd.Withdrawal
  | Some _ when existing == no_entry -> Some Rfd.Readvertisement
  | Some p ->
      if
        Apath.equal p existing.in_path
        && Update.aggregator_equal aggregator existing.in_aggregator
      then None (* exact duplicate *)
      else Some Rfd.Attribute_change

let handle_update t ~now ~slot:i update =
  (* Loop prevention: an announcement containing our own ASN is rejected,
     which for RIB purposes equals a withdrawal of that session's route.
     The same walk interns the path, pre-computing the length and hash
     every later comparison uses. *)
  let path, aggregator =
    match update with
    | Update.Announce a -> (Apath.loop_free t.cfg.asn a.as_path, a.aggregator)
    | Update.Withdraw _ -> (None, None)
  in
  let row = row_of t (Update.prefix update) in
  let timer_actions =
    if not t.nstates.(i).damps then []
    else
      match classify_rfd_event row.rib_in.(i) path aggregator with
      | None -> []
      | Some event ->
          let state = rfd_state_ensure t row i in
          let was = Rfd.suppressed state ~now in
          Rfd.record state ~now event;
          let is_now = Rfd.suppressed state ~now in
          if not (is_now && not was) then []
          else begin
            t.stats.rfd_suppressions <- t.stats.rfd_suppressions + 1;
            match Rfd.reuse_eta state ~now with
            | Some at ->
                [ Set_reuse_timer { slot = i; prefix = row.prefix; at } ]
            | None -> []
          end
  in
  row.rib_in.(i) <-
    (match path with
    | None -> no_entry
    | Some in_path -> { in_path; in_aggregator = aggregator });
  timer_actions @ reconsider t ~now row

let originate t ~now ?aggregator prefix =
  let row = row_of t prefix in
  row.origin <- Origin aggregator;
  reconsider t ~now row

let withdraw_origin t ~now prefix =
  let row = row_of t prefix in
  row.origin <- no_route;
  reconsider t ~now row

let handle_reuse_check t ~now ~slot ~prefix =
  match find_rfd t ~slot ~prefix with
  | None -> []
  | Some (row, state) ->
      if Rfd.suppressed state ~now then begin
        (* Penalty grew since the timer was set: re-arm. *)
        match Rfd.reuse_eta state ~now with
        | Some at when at > now -> [ Set_reuse_timer { slot; prefix; at } ]
        | Some _ | None -> []
      end
      else begin
        t.stats.rfd_releases <- t.stats.rfd_releases + 1;
        reconsider t ~now row
      end

let by_prefix a b = Prefix.compare a.prefix b.prefix

let handle_session_down t ~now ~slot:i =
  (* Routes learned on the session are gone: clear its adj-RIB-in slot,
     and forget what we advertised over it together with its MRAI state —
     a re-established session starts from an empty adj-RIB-out. *)
  let affected =
    Ptbl.fold
      (fun _ row acc ->
        let held = row.rib_in.(i) != no_entry in
        row.rib_in.(i) <- no_entry;
        row.adj_out.(i) <- never_sent;
        row.mrai.(i) <- no_mrai;
        if held then row :: acc else acc)
      t.rows []
    |> List.sort by_prefix
  in
  (* Path re-exploration: every prefix routed via the dead session is
     reconsidered, producing withdrawals or failover announcements
     downstream. *)
  List.concat_map (reconsider t ~now) affected

let handle_session_up t ~now ~slot:i =
  (* The peer's RIB is empty after the reset: re-advertise the current
     loc-RIB from scratch, subject to the usual export policy. *)
  let routed =
    Ptbl.fold
      (fun _ row acc -> if row.best != no_route then row :: acc else acc)
      t.rows []
    |> List.sort by_prefix
  in
  List.concat_map
    (fun row ->
      row.adj_out.(i) <- never_sent;
      row.mrai.(i) <- no_mrai;
      sync_one t ~now row i)
    routed

let handle_mrai_expiry t ~now ~slot:i ~prefix =
  let row = row_of t prefix in
  let ms = mrai_state_of row i in
  ms.pending <- false;
  ms.gate_until <- Float.min ms.gate_until now;
  sync_one t ~now row i

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
  | Send of { to_asn : Asn.t; update : Update.t }
  | Set_reuse_timer of { neighbor : Asn.t; prefix : Prefix.t; at : float }
  | Set_mrai_timer of { neighbor : Asn.t; prefix : Prefix.t; at : float }
  | Feed of Update.t

type rib_in_entry = {
  in_path : Apath.t;
  in_aggregator : Update.aggregator option;
}

type mrai_state = {
  mutable gate_until : float;  (* announcements blocked before this time *)
  mutable pending : bool;      (* a flush timer is armed *)
}

(* Monomorphic prefix-keyed tables: every per-session RIB structure is held
   per neighbor, so the former polymorphic (Asn.t * Prefix.t) lookups become
   a dense array index plus one monomorphic prefix hash. *)
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

(* One neighbor session, flattened: the static config plus every per-session
   table and the precomputed policy decisions that used to be recomputed per
   update. *)
type neighbor_state = {
  nb : neighbor;
  local_pref : int;                       (* Policy.local_pref nb.relationship *)
  damps : bool;                           (* RFD applies on this session *)
  export_from : bool array;               (* learned relationship -> export ok *)
  rib_in : rib_in_entry Ptbl.t;
  rfd : Rfd.t Ptbl.t;
  adj_out : Update.t Ptbl.t;              (* last update sent *)
  mrai : mrai_state Ptbl.t;
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
  originated : Update.aggregator option Ptbl.t;
  loc_rib : best Ptbl.t;
  last_feed : Update.t Ptbl.t option;
      (* last observation per prefix; Some iff a vantage listens here *)
  stats : stats;
}

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
      (* Tables start tiny and grow with the prefixes actually heard on the
         session: at Internet scale most of a router's sessions carry a
         small slice of the prefix universe, and a 10k-AS world holds
         ~4 tables x ~40k sessions — pre-sizing for the worst case would
         cost hundreds of megabytes before the first update flows. *)
      rib_in = Ptbl.create 8;
      rfd = Ptbl.create 4;
      adj_out = Ptbl.create 8;
      mrai = Ptbl.create 8;
    }
  in
  let nstates =
    (* Fold left so dense ids follow config order. *)
    List.fold_left (fun acc nb -> make_state nb :: acc) [] cfg.neighbors
    |> List.rev |> Array.of_list
  in
  {
    cfg;
    nstates;
    index_of;
    originated = Ptbl.create 4;
    loc_rib = Ptbl.create 8;
    last_feed = (if monitored then Some (Ptbl.create 8) else None);
    stats = { rfd_suppressions = 0; rfd_releases = 0 };
  }

let asn t = t.cfg.asn
let config t = t.cfg
let stats t = t.stats

let table_sizes t =
  let per_neighbor f =
    Array.fold_left (fun acc ns -> acc + f ns) 0 t.nstates
  in
  {
    rib_in_entries = per_neighbor (fun ns -> Ptbl.length ns.rib_in);
    rfd_states = per_neighbor (fun ns -> Ptbl.length ns.rfd);
    adj_out_entries = per_neighbor (fun ns -> Ptbl.length ns.adj_out);
    mrai_states = per_neighbor (fun ns -> Ptbl.length ns.mrai);
    loc_rib_entries = Ptbl.length t.loc_rib;
  }

let state_exn t asn_ =
  match Atbl.find t.index_of asn_ with
  | i -> t.nstates.(i)
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Router %s: %s is not a neighbor"
           (Asn.to_string t.cfg.asn) (Asn.to_string asn_))

let rfd_state t ~neighbor ~prefix =
  match Atbl.find_opt t.index_of neighbor with
  | None -> None
  | Some i -> Ptbl.find_opt t.nstates.(i).rfd prefix

let rfd_state_ensure ns prefix params =
  match Ptbl.find_opt ns.rfd prefix with
  | Some s -> s
  | None ->
      let s = Rfd.create params in
      Ptbl.replace ns.rfd prefix s;
      s

exception Found_suppressed

let is_suppressing t ~now =
  (* Early exit on the first suppressed entry instead of folding over every
     RFD record of every session. *)
  try
    Array.iter
      (fun ns ->
        Ptbl.iter
          (fun _ s -> if Rfd.suppressed s ~now then raise_notrace Found_suppressed)
          ns.rfd)
      t.nstates;
    false
  with Found_suppressed -> true

let best_route t prefix = Ptbl.find_opt t.loc_rib prefix

(* ------------------------------------------------------------------ *)
(* Decision process                                                     *)

let best_equal a b =
  match (a, b) with
  | Origin x, Origin y -> Update.aggregator_equal x y
  | Via x, Via y ->
      Asn.equal x.from_asn y.from_asn
      && Apath.equal x.as_path y.as_path
      && Update.aggregator_equal x.aggregator y.aggregator
  | Origin _, Via _ | Via _, Origin _ -> false

(* Sentinel for a missing adj-RIB-in entry, compared physically: the
   decision process looks up every neighbor, and [find_opt] would box each
   hit in an option. *)
let no_entry = { in_path = Apath.empty; in_aggregator = None }

let rib_in_entry ns prefix =
  match Ptbl.find ns.rib_in prefix with
  | entry -> entry
  | exception Not_found -> no_entry

(* Whether a held route survives damping.  [Rfd.suppressed] refreshes the
   penalty state, so it runs for every held route whose session has a
   state for the prefix; a session with no RFD state skips the lookup. *)
let not_suppressed ns ~now prefix =
  Ptbl.length ns.rfd = 0
  ||
  match Ptbl.find ns.rfd prefix with
  | s -> not (Rfd.suppressed s ~now)
  | exception Not_found -> true

(* Gao–Rexford selection over the dense neighbor array: highest local-pref,
   then shortest path (O(1) via the interned length), then lowest ASN.  The
   winner is tracked by index; only the final one becomes a [Via]. *)
let decide t ~now prefix =
  match Ptbl.find_opt t.originated prefix with
  | Some aggregator -> Some (Origin aggregator)
  | None ->
      let nstates = t.nstates in
      let w = ref (-1) and w_entry = ref no_entry in
      let w_pref = ref min_int and w_len = ref max_int in
      let w_asn = ref Asn.(of_int 0) in
      for i = 0 to Array.length nstates - 1 do
        let ns = Array.unsafe_get nstates i in
        let entry = rib_in_entry ns prefix in
        if entry != no_entry && not_suppressed ns ~now prefix then begin
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
      if !w < 0 then None
      else
        let ns = nstates.(!w) and entry = !w_entry in
        Some
          (Via
             {
               from_asn = ns.nb.neighbor_asn;
               relationship = ns.nb.relationship;
               as_path = entry.in_path;
               aggregator = entry.in_aggregator;
             })

(* ------------------------------------------------------------------ *)
(* Export                                                               *)

let export_update t prefix = function
  | Origin aggregator ->
      Update.Announce { prefix; as_path = [ t.cfg.asn ]; aggregator }
  | Via { as_path; aggregator; _ } ->
      Update.Announce
        { prefix; as_path = t.cfg.asn :: Apath.nodes as_path; aggregator }

(* The exported update is identical towards every neighbor (the AS prepends
   itself to the best path regardless of the receiver), so one
   reconsideration builds a single announce and a single withdraw and
   shares them across neighbors and the feed — at 10k ASs with high-degree
   transit cores, per-neighbor copies would be the dominant allocation of
   the delivery hot path.  With no best route the export is the withdraw. *)
let export_of t prefix best ~withdraw =
  match best with Some b -> export_update t prefix b | None -> withdraw

(* Whether [best] is advertised towards the neighbor: never back over the
   session it was learned on (split horizon), otherwise as the precomputed
   per-(learned relationship, neighbor) valley-free bit says. *)
let exports_towards best ns =
  match best with
  | None -> false
  | Some (Origin _) -> true
  | Some (Via v) ->
      (not (Asn.equal v.from_asn ns.nb.neighbor_asn))
      && ns.export_from.(rel_index v.relationship)

let mrai_state_of ns prefix =
  match Ptbl.find ns.mrai prefix with
  | s -> s
  | exception Not_found ->
      let s = { gate_until = 0.0; pending = false } in
      Ptbl.replace ns.mrai prefix s;
      s

(* What a neighbor's adj-RIB-out holds before anything was sent, without
   boxing each hit in an option: a withdraw, so it reads as already
   withdrawn and equals no announcement. *)
let never_sent = Update.Withdraw { prefix = Prefix.of_string "0.0.0.0/0" }

(* Push the desired state towards the neighbor, respecting MRAI for
   announcements.  Conses the resulting action, if any, onto [acc]. *)
let sync_neighbor ~now prefix best ns ~export ~withdraw acc =
  let previously =
    match Ptbl.find ns.adj_out prefix with
    | u -> u
    | exception Not_found -> never_sent
  in
  if not (exports_towards best ns) then begin
    if not (Update.is_announce previously) then acc (* already withdrawn *)
    else begin
      (* Withdrawals bypass MRAI (RFC 4271 §9.2.1.1). *)
      Ptbl.replace ns.adj_out prefix withdraw;
      Send { to_asn = ns.nb.neighbor_asn; update = withdraw } :: acc
    end
  end
  else if Update.equal previously export then acc
  else begin
    let ms = mrai_state_of ns prefix in
    if ns.nb.mrai <= 0.0 || now >= ms.gate_until then begin
      ms.gate_until <- now +. ns.nb.mrai;
      Ptbl.replace ns.adj_out prefix export;
      Send { to_asn = ns.nb.neighbor_asn; update = export } :: acc
    end
    else if ms.pending then acc
    else begin
      ms.pending <- true;
      Set_mrai_timer
        { neighbor = ns.nb.neighbor_asn; prefix; at = ms.gate_until }
      :: acc
    end
  end

(* A vantage observes the export (the withdraw when there is no best
   route).  Only a monitored router keeps [last_feed]; elsewhere nothing
   listens, so no observation is built. *)
let feed_action t prefix ~export acc =
  match t.last_feed with
  | None -> acc
  | Some last_feed ->
      let same =
        match Ptbl.find_opt last_feed prefix with
        | Some prev -> Update.equal prev export
        | None ->
            (* A withdraw for a never-announced prefix is not an
               observation. *)
            not (Update.is_announce export)
      in
      if same then acc
      else begin
        Ptbl.replace last_feed prefix export;
        Feed export :: acc
      end

(* Actions: one per neighbor that needs a message or a timer, in config
   order, then the feed observation. *)
let reconsider t ~now prefix =
  let old_best = Ptbl.find_opt t.loc_rib prefix in
  let new_best = decide t ~now prefix in
  let changed =
    match (old_best, new_best) with
    | None, None -> false
    | Some a, Some b -> not (best_equal a b)
    | None, Some _ | Some _, None -> true
  in
  if not changed then []
  else begin
    (match new_best with
    | Some b -> Ptbl.replace t.loc_rib prefix b
    | None -> Ptbl.remove t.loc_rib prefix);
    let withdraw = Update.Withdraw { prefix } in
    let export = export_of t prefix new_best ~withdraw in
    let acc = ref (feed_action t prefix ~export []) in
    for i = Array.length t.nstates - 1 downto 0 do
      acc :=
        sync_neighbor ~now prefix new_best t.nstates.(i) ~export ~withdraw !acc
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)

let classify_rfd_event existing update interned =
  match (update, existing) with
  | Update.Withdraw _, Some _ -> Some Rfd.Withdrawal
  | Update.Withdraw _, None -> None (* spurious withdrawal: no penalty *)
  | Update.Announce _, None -> Some Rfd.Readvertisement
  | Update.Announce a, Some (old : rib_in_entry) ->
      let same_path = Apath.equal interned old.in_path in
      let same_aggregator =
        Update.aggregator_equal a.aggregator old.in_aggregator
      in
      if same_path && same_aggregator then None (* exact duplicate *)
      else Some Rfd.Attribute_change

let handle_update t ~now ~from update =
  let ns = state_exn t from in
  let prefix = Update.prefix update in
  (* Loop prevention: an announcement containing our own ASN is rejected,
     which for RIB purposes equals a withdrawal of that session's route. *)
  let update =
    if Update.path_contains t.cfg.asn update then Update.Withdraw { prefix }
    else update
  in
  (* Intern the received path once: one traversal pre-computes the length
     and hash every later comparison uses. *)
  let interned =
    match update with
    | Update.Announce a -> Apath.of_list a.as_path
    | Update.Withdraw _ -> Apath.empty
  in
  let timer_actions =
    if ns.damps then begin
      let existing = Ptbl.find_opt ns.rib_in prefix in
      match classify_rfd_event existing update interned with
      | None -> []
      | Some event ->
          let state = rfd_state_ensure ns prefix t.cfg.rfd_params in
          let was = Rfd.suppressed state ~now in
          Rfd.record state ~now event;
          let is_now = Rfd.suppressed state ~now in
          if is_now && not was then begin
            t.stats.rfd_suppressions <- t.stats.rfd_suppressions + 1;
            match Rfd.reuse_eta state ~now with
            | Some at -> [ Set_reuse_timer { neighbor = from; prefix; at } ]
            | None -> []
          end
          else []
    end
    else []
  in
  (match update with
  | Update.Withdraw _ -> Ptbl.remove ns.rib_in prefix
  | Update.Announce a ->
      Ptbl.replace ns.rib_in prefix
        { in_path = interned; in_aggregator = a.aggregator });
  timer_actions @ reconsider t ~now prefix

let originate t ~now ?aggregator prefix =
  Ptbl.replace t.originated prefix aggregator;
  reconsider t ~now prefix

let withdraw_origin t ~now prefix =
  Ptbl.remove t.originated prefix;
  reconsider t ~now prefix

let handle_reuse_check t ~now ~neighbor ~prefix =
  match rfd_state t ~neighbor ~prefix with
  | None -> []
  | Some state ->
      if Rfd.suppressed state ~now then begin
        (* Penalty grew since the timer was set: re-arm. *)
        match Rfd.reuse_eta state ~now with
        | Some at when at > now -> [ Set_reuse_timer { neighbor; prefix; at } ]
        | Some _ | None -> []
      end
      else begin
        t.stats.rfd_releases <- t.stats.rfd_releases + 1;
        reconsider t ~now prefix
      end

let handle_session_down t ~now ~neighbor =
  let ns = state_exn t neighbor in
  (* Routes learned on the session are gone: clear the adj-RIB-in ... *)
  let affected =
    Ptbl.fold (fun prefix _ acc -> prefix :: acc) ns.rib_in []
    |> List.sort_uniq Prefix.compare
  in
  Ptbl.reset ns.rib_in;
  (* ... and forget what we advertised over it, together with its MRAI
     state — a re-established session starts from an empty adj-RIB-out. *)
  Ptbl.reset ns.adj_out;
  Ptbl.reset ns.mrai;
  (* Path re-exploration: every prefix routed via the dead session is
     reconsidered, producing withdrawals or failover announcements
     downstream. *)
  List.concat_map (reconsider t ~now) affected

let handle_session_up t ~now ~neighbor =
  let ns = state_exn t neighbor in
  (* The peer's RIB is empty after the reset: re-advertise the current
     loc-RIB from scratch, subject to the usual export policy. *)
  let prefixes =
    Ptbl.fold (fun prefix _ acc -> prefix :: acc) t.loc_rib []
    |> List.sort_uniq Prefix.compare
  in
  List.concat_map
    (fun prefix ->
      Ptbl.remove ns.adj_out prefix;
      Ptbl.remove ns.mrai prefix;
      let best = Ptbl.find_opt t.loc_rib prefix in
      let withdraw = Update.Withdraw { prefix } in
      let export = export_of t prefix best ~withdraw in
      sync_neighbor ~now prefix best ns ~export ~withdraw [])
    prefixes

let handle_mrai_expiry t ~now ~neighbor ~prefix =
  let ns = state_exn t neighbor in
  let ms = mrai_state_of ns prefix in
  ms.pending <- false;
  ms.gate_until <- Float.min ms.gate_until now;
  let best = Ptbl.find_opt t.loc_rib prefix in
  let withdraw = Update.Withdraw { prefix } in
  let export = export_of t prefix best ~withdraw in
  sync_neighbor ~now prefix best ns ~export ~withdraw []

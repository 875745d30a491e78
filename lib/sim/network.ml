open Because_bgp
module Rng = Because_stats.Rng

type timer_kind = Hold | Keepalive | Connect_retry

(* The route events name a router by its dense id and a session by the
   router's slot for it (see [Router]), so dispatching one is array reads.
   The rare origin and fault-layer events stay ASN-addressed. *)
type event =
  | Deliver of { router : int; slot : int; update : Update.t }
      (* [update] arrives at [router] over its session in [slot]. *)
  | Reuse_check of { router : int; slot : int; prefix : Prefix.t }
  | Mrai_expiry of { router : int; slot : int; prefix : Prefix.t }
  | Announce_origin of { origin : Asn.t; prefix : Prefix.t }
      (* Beacon announcement: stamped with an aggregator carrying the send
         time. *)
  | Withdraw_origin of { origin : Asn.t; prefix : Prefix.t }
  | Link_fault of { a : Asn.t; b : Asn.t; up : bool }
      (* The physical link between [a] and [b] goes down or comes back. *)
  | Session_reset of { a : Asn.t; b : Asn.t }
      (* Transport reset with the link staying up. *)
  | Fsm_deliver of { owner : Asn.t; peer : Asn.t; fsm_event : Session.event }
  | Fsm_timer of { owner : Asn.t; peer : Asn.t; kind : timer_kind; gen : int }
      (* Stale unless [gen] matches the side's current generation. *)

type fault_event =
  | Fault_link_down of { a : Asn.t; b : Asn.t }
  | Fault_link_up of { a : Asn.t; b : Asn.t }
  | Fault_session_reset of { a : Asn.t; b : Asn.t }
  | Fault_session_down of { owner : Asn.t; peer : Asn.t; reason : string }
  | Fault_session_up of { owner : Asn.t; peer : Asn.t }
  | Fault_update_lost of
      { from_asn : Asn.t; to_asn : Asn.t; prefix : Prefix.t }
  | Fault_update_duplicated of
      { from_asn : Asn.t; to_asn : Asn.t; prefix : Prefix.t }

type stats = {
  mutable deliveries : int;
  mutable announcements : int;
  mutable withdrawals : int;
  mutable lost : int;
  mutable duplicated : int;
  mutable session_drops : int;
  mutable session_recoveries : int;
}

(* One endpoint's view of a faulted session: its RFC 4271 FSM plus timer
   generations (a timer event is stale unless its generation matches). *)
type side = {
  owner : Asn.t;
  s_peer : Asn.t;
  owner_id : int;  (* the owner's router id ... *)
  s_slot : int;    (* ... and its slot for the session *)
  mutable fsm : Session.t;
  mutable hold_gen : int;
  mutable keep_gen : int;
  mutable retry_gen : int;
}

(* A link that has been touched by the fault layer.  Links without a record
   behave exactly as before this subsystem existed: implicitly Established,
   lossless, never down. *)
type link_session = {
  side_a : side;
  side_b : side;
  mutable link_up : bool;
  mutable connecting : bool;  (* a transport connect is in flight *)
  mutable loss : float;       (* per-update drop probability *)
  mutable dup : float;        (* per-update duplication probability *)
}

(* ASN -> dense router id, in config order.  Everything keyed per router
   (feeds and the link tables included) shares this id space; the route
   events carry ids, so only the rare ASN-addressed events look one up. *)
module Itbl = Hashtbl.Make (struct
  type t = Asn.t

  let equal = Asn.equal
  let hash a = Asn.to_int a * 0x9E3779B1 land max_int
end)

(* A monitored vantage's observations, newest first.  The entries share
   their [Update.t] values with the routers' tables. *)
type feed_sink = (float * Update.t) list ref

type t = {
  engine : event Engine.t;
  ids : int Itbl.t;
  routers : Router.t array;  (* dense, config order *)
  (* The link tables, by router id and slot: the neighbor's router id
     ([-1] when the neighbor is not part of this network), the slot the
     neighbor has for us ([-1] when it does not list us) and the one-way
     delay towards it.  A delivery over a half-wired link fails with
     [Invalid_argument] when it reaches the [-1]. *)
  peer : int array array;
  back : int array array;
  delays : float array array;
  monitored_set : Asn.Set.t;
  feed_sinks : feed_sink option array;  (* by router id; Some iff monitored *)
  stats : stats;
  sessions : (Asn.t * Asn.t, link_session) Hashtbl.t;
  fault_seed : int;
  (* (from, to, prefix) -> impaired deliveries so far: the draw counter. *)
  delivery_index : (Asn.t * Asn.t * Prefix.t, int) Hashtbl.t;
  mutable fault_log : (float * fault_event) list;  (* newest first *)
}

let create ?(fault_seed = 0) ~configs ~delay ~monitored () =
  let n = List.length configs in
  let ids = Itbl.create (2 * max 1 n) in
  let routers =
    Array.of_list
      (List.map
         (fun (cfg : Router.config) ->
           if Itbl.mem ids cfg.Router.asn then
             invalid_arg "Network.create: duplicate router";
           Itbl.replace ids cfg.Router.asn (Itbl.length ids);
           (* Only the routers a vantage listens at build feed observations. *)
           Router.create ~monitored:(Asn.Set.mem cfg.Router.asn monitored) cfg)
         configs)
  in
  let per_slot f =
    Array.map
      (fun r ->
        let cfg = Router.config r in
        Array.of_list (List.map (f cfg) cfg.Router.neighbors))
      routers
  in
  let peer =
    per_slot (fun _ (nb : Router.neighbor) ->
        Option.value (Itbl.find_opt ids nb.Router.neighbor_asn) ~default:(-1))
  in
  let back =
    Array.mapi
      (fun id peers ->
        Array.map
          (fun p ->
            if p < 0 then -1
            else
              match Router.slot routers.(p) (Router.asn routers.(id)) with
              | s -> s
              | exception Invalid_argument _ -> -1)
          peers)
      peer
  in
  let feed_sinks =
    Array.map
      (fun r ->
        if Asn.Set.mem (Router.config r).Router.asn monitored then
          Some (ref [])
        else None)
      routers
  in
  let n_links =
    List.fold_left
      (fun acc (cfg : Router.config) -> acc + List.length cfg.Router.neighbors)
      0 configs
    / 2
  in
  {
    engine = Engine.create ();
    ids;
    routers;
    peer;
    back;
    delays =
      per_slot (fun cfg nb ->
          delay ~from_asn:cfg.Router.asn ~to_asn:nb.Router.neighbor_asn);
    monitored_set = monitored;
    feed_sinks;
    stats =
      { deliveries = 0; announcements = 0; withdrawals = 0; lost = 0;
        duplicated = 0; session_drops = 0; session_recoveries = 0 };
    sessions = Hashtbl.create (max 16 n_links);
    fault_seed;
    delivery_index = Hashtbl.create 16;
    fault_log = [];
  }

let router_id t asn =
  match Itbl.find_opt t.ids asn with
  | Some id -> id
  | None -> invalid_arg ("Network.router: unknown AS " ^ Asn.to_string asn)

let router t asn = t.routers.(router_id t asn)

let record_feed t ~now id update =
  match Array.unsafe_get t.feed_sinks id with
  | None -> ()
  | Some log -> log := (now, update) :: !log

let log_fault t ~now ev = t.fault_log <- (now, ev) :: t.fault_log

(* ------------------------------------------------------------------ *)
(* Session-layer plumbing                                               *)

let link_key a b = if Asn.compare a b <= 0 then (a, b) else (b, a)

(* Fault-free runs never create a session record; skip the tuple key and
   its polymorphic hash on every delivery then. *)
let session_of t a b =
  if Hashtbl.length t.sessions = 0 then None
  else Hashtbl.find_opt t.sessions (link_key a b)

(* Drive a freshly created FSM to Established: before the first fault a
   session has by definition been up forever, so the record starts there. *)
let established_fsm ~owner ~peer =
  let fsm = Session.create (Session.default_config owner) in
  let fsm, _ = Session.handle fsm Session.Manual_start in
  let fsm, _ = Session.handle fsm Session.Transport_connected in
  let fsm, _ =
    Session.handle fsm
      (Session.Open_received { peer_asn = peer; hold_time = 90.0 })
  in
  let fsm, _ = Session.handle fsm Session.Keepalive_received in
  fsm

let ensure_session t a b =
  let key = link_key a b in
  match Hashtbl.find_opt t.sessions key with
  | Some ls -> ls
  | None ->
      let make_side ~owner ~peer =
        let owner_id = router_id t owner in
        let s_slot =
          match Router.slot t.routers.(owner_id) peer with
          | s when t.back.(owner_id).(s) >= 0 -> s
          | _ | (exception Invalid_argument _) ->
              invalid_arg
                (Printf.sprintf "Network: no session between %s and %s"
                   (Asn.to_string a) (Asn.to_string b))
        in
        { owner; s_peer = peer; owner_id; s_slot;
          fsm = established_fsm ~owner ~peer;
          hold_gen = 0; keep_gen = 0; retry_gen = 0 }
      in
      let ka, kb = key in
      let ls =
        {
          side_a = make_side ~owner:ka ~peer:kb;
          side_b = make_side ~owner:kb ~peer:ka;
          link_up = true;
          connecting = false;
          loss = 0.0;
          dup = 0.0;
        }
      in
      Hashtbl.replace t.sessions key ls;
      ls

let side_of ls owner =
  if Asn.equal ls.side_a.owner owner then ls.side_a else ls.side_b

(* Updates flow only when no session record exists (implicit establishment)
   or when both FSMs are Established over an up link. *)
let session_passing ls =
  ls.link_up
  && Session.state ls.side_a.fsm = Session.Established
  && Session.state ls.side_b.fsm = Session.Established

(* ------------------------------------------------------------------ *)
(* Event handling                                                       *)

(* Loss (kind 0) and duplication (kind 1) draws for the next impaired
   delivery of [prefix] over [from_asn -> to_asn].  Each is a hash of the
   fault seed, the link, the prefix and that prefix's delivery index on the
   link, so it cannot depend on which other prefixes share this network. *)
let fault_draws t ~from_asn ~to_asn prefix =
  let key = (from_asn, to_asn, prefix) in
  let n = Option.value (Hashtbl.find_opt t.delivery_index key) ~default:0 in
  Hashtbl.replace t.delivery_index key (n + 1);
  fun ~kind p ->
    p > 0.0
    && Rng.keyed_float t.fault_seed
         [ Asn.to_int from_asn; Asn.to_int to_asn;
           Int32.to_int (Prefix.network prefix); Prefix.length prefix; n; kind ]
       < p

(* [id] is the router that returned [actions]. *)
let rec perform t ~now id actions =
  match actions with
  | [] -> ()
  | action :: rest ->
      (match action with
      | Router.Send { slot; update } ->
          Engine.schedule t.engine
            ~time:(now +. t.delays.(id).(slot))
            (Deliver
               { router = t.peer.(id).(slot);
                 slot = t.back.(id).(slot); update })
      | Router.Set_reuse_timer { slot; prefix; at } ->
          Engine.schedule t.engine ~time:at
            (Reuse_check { router = id; slot; prefix })
      | Router.Set_mrai_timer { slot; prefix; at } ->
          Engine.schedule t.engine ~time:at
            (Mrai_expiry { router = id; slot; prefix })
      | Router.Feed update -> record_feed t ~now id update);
      perform t ~now id rest

and deliver t ~now id slot update =
  t.stats.deliveries <- t.stats.deliveries + 1;
  if Update.is_announce update then
    t.stats.announcements <- t.stats.announcements + 1
  else t.stats.withdrawals <- t.stats.withdrawals + 1;
  perform t ~now id (Router.handle_update t.routers.(id) ~now ~slot update)

(* Feed one event to a side's FSM and perform the resulting actions. *)
and fsm_step t ~now ls side ev =
  let fsm', actions = Session.handle side.fsm ev in
  side.fsm <- fsm';
  List.iter (fun action -> fsm_action t ~now ls side action) actions

and fsm_action t ~now ls side action =
  let owner = side.owner and peer = side.s_peer in
  let link_delay = t.delays.(side.owner_id).(side.s_slot) in
  let schedule_fsm ~at ~owner ~peer fsm_event =
    Engine.schedule t.engine ~time:at (Fsm_deliver { owner; peer; fsm_event })
  in
  match action with
  | Session.Initiate_transport ->
      if ls.link_up then begin
        if not ls.connecting then begin
          ls.connecting <- true;
          (* One TCP connection serves both endpoints: connected at the same
             instant so the OPENs cross symmetrically. *)
          let at = now +. link_delay in
          schedule_fsm ~at ~owner ~peer Session.Transport_connected;
          schedule_fsm ~at ~owner:peer ~peer:owner Session.Transport_connected
        end
      end
      else
        (* The connect fails once the (dead) link times it out. *)
        schedule_fsm ~at:(now +. 1.0) ~owner ~peer Session.Transport_failed
  | Session.Close_transport -> ls.connecting <- false
  | Session.Send_open ->
      schedule_fsm ~at:(now +. link_delay) ~owner:peer ~peer:owner
        (Session.Open_received { peer_asn = owner; hold_time = 90.0 })
  | Session.Send_keepalive ->
      schedule_fsm ~at:(now +. link_delay) ~owner:peer ~peer:owner
        Session.Keepalive_received
  | Session.Send_notification _ ->
      schedule_fsm ~at:(now +. link_delay) ~owner:peer ~peer:owner
        Session.Notification_received
  | Session.Start_hold_timer d ->
      (* Once Established the transport is only torn down by injected faults;
         skipping the keepalive/hold ping-pong there keeps the event count
         proportional to the number of faults, not the campaign length. *)
      if Session.state side.fsm <> Session.Established then begin
        side.hold_gen <- side.hold_gen + 1;
        Engine.schedule t.engine ~time:(now +. d)
          (Fsm_timer { owner; peer; kind = Hold; gen = side.hold_gen })
      end
  | Session.Start_keepalive_timer d ->
      if Session.state side.fsm <> Session.Established then begin
        side.keep_gen <- side.keep_gen + 1;
        Engine.schedule t.engine ~time:(now +. d)
          (Fsm_timer { owner; peer; kind = Keepalive; gen = side.keep_gen })
      end
  | Session.Start_connect_retry_timer d ->
      side.retry_gen <- side.retry_gen + 1;
      Engine.schedule t.engine ~time:(now +. d)
        (Fsm_timer { owner; peer; kind = Connect_retry; gen = side.retry_gen })
  | Session.Session_up ->
      (* Timers armed during the handshake (hold, keepalive, connect-retry)
         must not fire into the established session — established transports
         are only torn down by injected faults. *)
      side.hold_gen <- side.hold_gen + 1;
      side.keep_gen <- side.keep_gen + 1;
      side.retry_gen <- side.retry_gen + 1;
      t.stats.session_recoveries <- t.stats.session_recoveries + 1;
      log_fault t ~now (Fault_session_up { owner; peer });
      perform t ~now side.owner_id
        (Router.handle_session_up t.routers.(side.owner_id) ~now
           ~slot:side.s_slot)
  | Session.Session_down reason ->
      t.stats.session_drops <- t.stats.session_drops + 1;
      log_fault t ~now (Fault_session_down { owner; peer; reason });
      perform t ~now side.owner_id
        (Router.handle_session_down t.routers.(side.owner_id) ~now
           ~slot:side.s_slot)

(* Restart a torn-down side.  [Manual_start] is a no-op outside Idle, so this
   is safe to feed unconditionally. *)
and fsm_restart t ~now ls side =
  if Session.state side.fsm = Session.Idle then
    fsm_step t ~now ls side Session.Manual_start

and handle t ~now event =
  match event with
  | Deliver { router = id; slot; update } when Hashtbl.length t.sessions = 0
    ->
      deliver t ~now id slot update
  | Deliver { router = id; slot; update } -> (
      let to_asn = Router.asn t.routers.(id) in
      let from_asn = Router.asn t.routers.(t.peer.(id).(slot)) in
      match Hashtbl.find_opt t.sessions (link_key from_asn to_asn) with
      | Some ls when not (session_passing ls) ->
          (* In transit while the session died: lost with the transport. *)
          t.stats.lost <- t.stats.lost + 1
      | Some ls when ls.loss > 0.0 || ls.dup > 0.0 ->
          let prefix = Update.prefix update in
          let draw = fault_draws t ~from_asn ~to_asn prefix in
          if draw ~kind:0 ls.loss then begin
            t.stats.lost <- t.stats.lost + 1;
            log_fault t ~now (Fault_update_lost { from_asn; to_asn; prefix })
          end
          else begin
            deliver t ~now id slot update;
            if draw ~kind:1 ls.dup then begin
              t.stats.duplicated <- t.stats.duplicated + 1;
              log_fault t ~now
                (Fault_update_duplicated { from_asn; to_asn; prefix });
              deliver t ~now id slot update
            end
          end
      | Some _ | None -> deliver t ~now id slot update)
  | Reuse_check { router = id; slot; prefix } ->
      perform t ~now id
        (Router.handle_reuse_check t.routers.(id) ~now ~slot ~prefix)
  | Mrai_expiry { router = id; slot; prefix } ->
      perform t ~now id
        (Router.handle_mrai_expiry t.routers.(id) ~now ~slot ~prefix)
  | Announce_origin { origin; prefix } ->
      let id = router_id t origin in
      let aggregator =
        { Update.aggregator_asn = origin; sent_at = now; valid = true }
      in
      perform t ~now id (Router.originate t.routers.(id) ~now ~aggregator prefix)
  | Withdraw_origin { origin; prefix } ->
      let id = router_id t origin in
      perform t ~now id (Router.withdraw_origin t.routers.(id) ~now prefix)
  | Link_fault { a; b; up } ->
      let ls = ensure_session t a b in
      if up && not ls.link_up then begin
        ls.link_up <- true;
        log_fault t ~now (Fault_link_up { a; b });
        (* Reconnect without waiting out a full retry period: an incoming
           connection would succeed immediately on a healed link. *)
        List.iter
          (fun side ->
            match Session.state side.fsm with
            | Session.Idle -> fsm_restart t ~now ls side
            | Session.Connect | Session.Active ->
                side.retry_gen <- side.retry_gen + 1;  (* cancel pending *)
                fsm_step t ~now ls side Session.Connect_retry_expired
            | Session.Open_sent | Session.Open_confirm
            | Session.Established -> ())
          [ ls.side_a; ls.side_b ]
      end
      else if (not up) && ls.link_up then begin
        ls.link_up <- false;
        ls.connecting <- false;
        log_fault t ~now (Fault_link_down { a; b });
        fsm_step t ~now ls ls.side_a Session.Transport_failed;
        fsm_step t ~now ls ls.side_b Session.Transport_failed;
        (* Both ends keep trying to re-establish for the rest of the outage. *)
        fsm_restart t ~now ls ls.side_a;
        fsm_restart t ~now ls ls.side_b
      end
  | Session_reset { a; b } ->
      let ls = ensure_session t a b in
      log_fault t ~now (Fault_session_reset { a; b });
      ls.connecting <- false;
      fsm_step t ~now ls ls.side_a Session.Transport_failed;
      fsm_step t ~now ls ls.side_b Session.Transport_failed;
      fsm_restart t ~now ls ls.side_a;
      fsm_restart t ~now ls ls.side_b
  | Fsm_deliver { owner; peer; fsm_event } -> (
      match session_of t owner peer with
      | None -> ()
      | Some ls ->
          let side = side_of ls owner in
          let state = Session.state side.fsm in
          (* Synthetic transport/message events can be stale by the time they
             arrive (the link flapped, the FSM moved on); feed only the ones
             the current state expects so a stale event cannot masquerade as
             an FSM error. *)
          let feed =
            match fsm_event with
            | Session.Transport_connected ->
                if ls.link_up
                   && (state = Session.Connect || state = Session.Active)
                then begin
                  ls.connecting <- false;
                  true
                end
                else false
            | Session.Transport_failed ->
                state = Session.Connect || state = Session.Active
                || state = Session.Open_sent
            | Session.Open_received _ ->
                ls.link_up && state = Session.Open_sent
            | Session.Keepalive_received ->
                ls.link_up
                && (state = Session.Open_confirm
                   || state = Session.Established)
            | Session.Notification_received ->
                ls.link_up && state <> Session.Idle
            | Session.Manual_start -> state = Session.Idle
            | _ -> true
          in
          if feed then fsm_step t ~now ls side fsm_event)
  | Fsm_timer { owner; peer; kind; gen } -> (
      match session_of t owner peer with
      | None -> ()
      | Some ls ->
          let side = side_of ls owner in
          let current, ev =
            match kind with
            | Hold -> (side.hold_gen, Session.Hold_timer_expired)
            | Keepalive -> (side.keep_gen, Session.Keepalive_timer_expired)
            | Connect_retry -> (side.retry_gen, Session.Connect_retry_expired)
          in
          if gen = current then begin
            fsm_step t ~now ls side ev;
            (* A hold-timer teardown mid-handshake drops the side to Idle;
               keep it probing until the link lets it back through. *)
            fsm_restart t ~now ls side
          end)

let schedule_announce t ~time ~origin prefix =
  Engine.schedule t.engine ~time (Announce_origin { origin; prefix })

let schedule_withdraw t ~time ~origin prefix =
  Engine.schedule t.engine ~time (Withdraw_origin { origin; prefix })

let schedule_session_reset t ~time ~a ~b =
  Engine.schedule t.engine ~time (Session_reset { a; b })

let schedule_link_down t ~time ~a ~b =
  Engine.schedule t.engine ~time (Link_fault { a; b; up = false })

let schedule_link_up t ~time ~a ~b =
  Engine.schedule t.engine ~time (Link_fault { a; b; up = true })

let set_link_impairment t ~a ~b ~loss ~duplication =
  if loss < 0.0 || loss > 1.0 then
    invalid_arg "Network.set_link_impairment: loss outside [0, 1]";
  if duplication < 0.0 || duplication > 1.0 then
    invalid_arg "Network.set_link_impairment: duplication outside [0, 1]";
  let ls = ensure_session t a b in
  ls.loss <- loss;
  ls.dup <- duplication

let session_established t ~a ~b =
  match session_of t a b with
  | None -> true  (* never faulted: implicitly established *)
  | Some ls -> session_passing ls

let run t ~until = Engine.run t.engine ~until ~handler:(handle t)
let now t = Engine.now t.engine
let stats t = t.stats
let events_processed t = Engine.processed t.engine
let max_queue_depth t = Engine.max_pending t.engine

let rfd_stats t =
  Array.fold_left
    (fun (supp, rel) r ->
      let s = Router.stats r in
      (supp + s.Router.rfd_suppressions, rel + s.Router.rfd_releases))
    (0, 0) t.routers

let table_totals t =
  Array.fold_left
    (fun (acc : Router.table_sizes) r ->
      let ts = Router.table_sizes r in
      {
        Router.rib_in_entries =
          acc.Router.rib_in_entries + ts.Router.rib_in_entries;
        rfd_states = acc.Router.rfd_states + ts.Router.rfd_states;
        adj_out_entries =
          acc.Router.adj_out_entries + ts.Router.adj_out_entries;
        mrai_states = acc.Router.mrai_states + ts.Router.mrai_states;
        loc_rib_entries =
          acc.Router.loc_rib_entries + ts.Router.loc_rib_entries;
      })
    {
      Router.rib_in_entries = 0;
      rfd_states = 0;
      adj_out_entries = 0;
      mrai_states = 0;
      loc_rib_entries = 0;
    }
    t.routers

let fault_log t = List.rev t.fault_log

let feed t asn =
  match Itbl.find_opt t.ids asn with
  | None -> []
  | Some id -> (
      match t.feed_sinks.(id) with None -> [] | Some log -> List.rev !log)

let monitored t = t.monitored_set

open Because_bgp
module Rng = Because_stats.Rng

type timer_kind = Hold | Keepalive | Connect_retry

type event =
  | Deliver of { from_asn : Asn.t; to_asn : Asn.t; update : Update.t }
  | Reuse_check of { owner : Asn.t; neighbor : Asn.t; prefix : Prefix.t }
  | Mrai_expiry of { owner : Asn.t; neighbor : Asn.t; prefix : Prefix.t }
  | Announce_origin of { origin : Asn.t; prefix : Prefix.t }
  | Withdraw_origin of { origin : Asn.t; prefix : Prefix.t }
  | Link_fault of { a : Asn.t; b : Asn.t; up : bool }
  | Session_reset of { a : Asn.t; b : Asn.t }
  | Fsm_deliver of { owner : Asn.t; peer : Asn.t; fsm_event : Session.event }
  | Fsm_timer of { owner : Asn.t; peer : Asn.t; kind : timer_kind; gen : int }

type fault_event =
  | Fault_link_down of { a : Asn.t; b : Asn.t }
  | Fault_link_up of { a : Asn.t; b : Asn.t }
  | Fault_session_reset of { a : Asn.t; b : Asn.t }
  | Fault_session_down of { owner : Asn.t; peer : Asn.t; reason : string }
  | Fault_session_up of { owner : Asn.t; peer : Asn.t }
  | Fault_update_lost of { from_asn : Asn.t; to_asn : Asn.t }
  | Fault_update_duplicated of { from_asn : Asn.t; to_asn : Asn.t }

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

(* ASN -> dense router id.  Routers live in an array indexed by interned id
   so the delivery hot path is one hash lookup + one array read; everything
   keyed per-router (feeds included) shares the same id space. *)
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
  delay : from_asn:Asn.t -> to_asn:Asn.t -> float;
  monitored_set : Asn.Set.t;
  feed_sinks : feed_sink option array;  (* by router id; Some iff monitored *)
  stats : stats;
  sessions : (Asn.t * Asn.t, link_session) Hashtbl.t;
  fault_rng : Rng.t option;
  mutable fault_log : (float * fault_event) list;  (* newest first *)
}

let create ?fault_rng ~configs ~delay ~monitored () =
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
    delay;
    monitored_set = monitored;
    feed_sinks;
    stats =
      { deliveries = 0; announcements = 0; withdrawals = 0; lost = 0;
        duplicated = 0; session_drops = 0; session_recoveries = 0 };
    sessions = Hashtbl.create (max 16 n_links);
    fault_rng;
    fault_log = [];
  }

let router t asn =
  match Itbl.find_opt t.ids asn with
  | Some id -> Array.unsafe_get t.routers id
  | None -> invalid_arg ("Network.router: unknown AS " ^ Asn.to_string asn)

let record_feed t ~now asn update =
  match Itbl.find_opt t.ids asn with
  | None -> ()
  | Some id -> (
      match Array.unsafe_get t.feed_sinks id with
      | None -> ()
      | Some log -> log := (now, update) :: !log)

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

let make_side ~owner ~peer =
  { owner; s_peer = peer; fsm = established_fsm ~owner ~peer;
    hold_gen = 0; keep_gen = 0; retry_gen = 0 }

let ensure_session t a b =
  let key = link_key a b in
  match Hashtbl.find_opt t.sessions key with
  | Some ls -> ls
  | None ->
      let ra = router t a and rb = router t b in
      let is_neighbor r n =
        List.exists
          (fun (nb : Router.neighbor) -> Asn.equal nb.Router.neighbor_asn n)
          (Router.config r).Router.neighbors
      in
      if not (is_neighbor ra b && is_neighbor rb a) then
        invalid_arg
          (Printf.sprintf "Network: no session between %s and %s"
             (Asn.to_string a) (Asn.to_string b));
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

(* An update loss or duplication draw on an impaired session. *)
let fault_draw t p =
  match t.fault_rng with
  | Some rng when p > 0.0 -> Rng.float rng < p
  | Some _ | None -> false

let rec perform t ~now owner actions =
  match actions with
  | [] -> ()
  | action :: rest ->
      (match action with
      | Router.Send { to_asn; update } ->
          let d = t.delay ~from_asn:owner ~to_asn in
          Engine.schedule t.engine ~time:(now +. d)
            (Deliver { from_asn = owner; to_asn; update })
      | Router.Set_reuse_timer { neighbor; prefix; at } ->
          Engine.schedule t.engine ~time:at
            (Reuse_check { owner; neighbor; prefix })
      | Router.Set_mrai_timer { neighbor; prefix; at } ->
          Engine.schedule t.engine ~time:at
            (Mrai_expiry { owner; neighbor; prefix })
      | Router.Feed update -> record_feed t ~now owner update);
      perform t ~now owner rest

and deliver t ~now ~from_asn ~to_asn update =
  t.stats.deliveries <- t.stats.deliveries + 1;
  if Update.is_announce update then
    t.stats.announcements <- t.stats.announcements + 1
  else t.stats.withdrawals <- t.stats.withdrawals + 1;
  perform t ~now to_asn
    (Router.handle_update (router t to_asn) ~now ~from:from_asn update)

(* Feed one event to a side's FSM and perform the resulting actions. *)
and fsm_step t ~now ls side ev =
  let fsm', actions = Session.handle side.fsm ev in
  side.fsm <- fsm';
  List.iter (fun action -> fsm_action t ~now ls side action) actions

and fsm_action t ~now ls side action =
  let owner = side.owner and peer = side.s_peer in
  let link_delay = t.delay ~from_asn:owner ~to_asn:peer in
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
      perform t ~now owner
        (Router.handle_session_up (router t owner) ~now ~neighbor:peer)
  | Session.Session_down reason ->
      t.stats.session_drops <- t.stats.session_drops + 1;
      log_fault t ~now (Fault_session_down { owner; peer; reason });
      perform t ~now owner
        (Router.handle_session_down (router t owner) ~now ~neighbor:peer)

(* Restart a torn-down side.  [Manual_start] is a no-op outside Idle, so this
   is safe to feed unconditionally. *)
and fsm_restart t ~now ls side =
  if Session.state side.fsm = Session.Idle then
    fsm_step t ~now ls side Session.Manual_start

and handle t ~now event =
  match event with
  | Deliver { from_asn; to_asn; update } -> (
      match session_of t from_asn to_asn with
      | Some ls when not (session_passing ls) ->
          (* In transit while the session died: lost with the transport. *)
          t.stats.lost <- t.stats.lost + 1
      | Some ls when ls.loss > 0.0 || ls.dup > 0.0 ->
          if fault_draw t ls.loss then begin
            t.stats.lost <- t.stats.lost + 1;
            log_fault t ~now (Fault_update_lost { from_asn; to_asn })
          end
          else begin
            deliver t ~now ~from_asn ~to_asn update;
            if fault_draw t ls.dup then begin
              t.stats.duplicated <- t.stats.duplicated + 1;
              log_fault t ~now (Fault_update_duplicated { from_asn; to_asn });
              deliver t ~now ~from_asn ~to_asn update
            end
          end
      | Some _ | None -> deliver t ~now ~from_asn ~to_asn update)
  | Reuse_check { owner; neighbor; prefix } ->
      let r = router t owner in
      perform t ~now owner (Router.handle_reuse_check r ~now ~neighbor ~prefix)
  | Mrai_expiry { owner; neighbor; prefix } ->
      let r = router t owner in
      perform t ~now owner (Router.handle_mrai_expiry r ~now ~neighbor ~prefix)
  | Announce_origin { origin; prefix } ->
      let r = router t origin in
      let aggregator =
        { Update.aggregator_asn = origin; sent_at = now; valid = true }
      in
      perform t ~now origin (Router.originate r ~now ~aggregator prefix)
  | Withdraw_origin { origin; prefix } ->
      let r = router t origin in
      perform t ~now origin (Router.withdraw_origin r ~now prefix)
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
  if (loss > 0.0 || duplication > 0.0) && t.fault_rng = None then
    invalid_arg "Network.set_link_impairment: no fault rng installed";
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

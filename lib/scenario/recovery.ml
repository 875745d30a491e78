(* Campaign-level recovery: one durable checkpoint store shared by the
   simulation shards and every MCMC chain, plus the scenario-specific
   serializers the lower layers deliberately know nothing about.

   The store is attached once per campaign run under a fingerprint of the
   full stimulus (world parameters, schedules, script, inference settings),
   so snapshots can only ever resume the campaign that wrote them. *)

module Codec = Because_recover.Codec
module Checkpoint = Because_recover.Checkpoint
module Chain_ckpt = Because_recover.Chain_ckpt
module Sharded = Because_sim.Sharded
module Network = Because_sim.Network
module Asn = Because_bgp.Asn
module Prefix = Because_bgp.Prefix
module Update = Because_bgp.Update

exception Killed
(* Test hook: simulates a hard kill at the moment a configured save would
   have happened.  Raised *before* the write, like a real crash. *)

type t = {
  dir : string;
  resume : bool;
  every_sweeps : int option;
  kill_switch : (unit -> bool) option;
  mutable store : Checkpoint.t option;
}

let create ~dir ?(resume = false) ?every_sweeps ?kill_switch () =
  { dir; resume; every_sweeps; kill_switch; store = None }

let dir t = t.dir

let warnings t =
  match t.store with Some s -> Checkpoint.warnings s | None -> []

let saves t = match t.store with Some s -> Checkpoint.saves s | None -> 0

let restores t =
  match t.store with Some s -> Checkpoint.restores s | None -> 0

let fallbacks t =
  match t.store with Some s -> Checkpoint.fallbacks s | None -> 0

(* A fresh (non-resuming) run must not read a previous run's snapshots even
   when the fingerprint matches, so its attach clears the directory first;
   quarantined *.corrupt-N files are kept for post-mortem. *)
let wipe_snapshots dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ck" || f = "MANIFEST" then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

let attach t ~fingerprint =
  if not t.resume then wipe_snapshots t.dir;
  t.store <- Some (Checkpoint.open_ ~dir:t.dir ~fingerprint ())

let save_payload t ~key payload =
  match t.store with
  | None -> ()
  | Some store ->
      (match t.kill_switch with
      | Some tripped when tripped () -> raise Killed
      | _ -> ());
      Checkpoint.save store ~key payload

(* A payload that passes its CRC but fails [decode] is quarantined by the
   store and falls back to the previous snapshot, like a checksum failure. *)
let load_decoded t ~key decode =
  match t.store with
  | None -> None
  | Some store -> Checkpoint.load_decoded store ~key decode

(* --- scenario value codecs ---

   The RFC 4271 wire codec is deliberately lossy (whole-second timestamps,
   collapsed invalid aggregators) and therefore unusable here: resume must
   reproduce feeds bit-for-bit, floats and all. *)

let w_asn w a = Codec.int w (Asn.to_int a)
let r_asn r = Codec.valid "ASN" Asn.of_int (Codec.read_int r)

let w_prefix w p =
  Codec.i64 w (Int64.of_int32 (Prefix.network p));
  Codec.int w (Prefix.length p)

let r_prefix r =
  let network = Int64.to_int32 (Codec.read_i64 r) in
  let length = Codec.read_int r in
  Codec.valid "prefix length" (Prefix.make network) length

let w_aggregator w (a : Update.aggregator) =
  w_asn w a.Update.aggregator_asn;
  Codec.float w a.Update.sent_at;
  Codec.bool w a.Update.valid

let r_aggregator r : Update.aggregator =
  let aggregator_asn = r_asn r in
  let sent_at = Codec.read_float r in
  let valid = Codec.read_bool r in
  { Update.aggregator_asn; sent_at; valid }

let w_update w = function
  | Update.Announce { prefix; as_path; aggregator } ->
      Codec.u8 w 0;
      w_prefix w prefix;
      Codec.list w w_asn as_path;
      Codec.option w w_aggregator aggregator
  | Update.Withdraw { prefix } ->
      Codec.u8 w 1;
      w_prefix w prefix

let r_update r =
  match Codec.read_u8 r with
  | 0 ->
      let prefix = r_prefix r in
      let as_path = Codec.read_list r r_asn in
      let aggregator = Codec.read_option r r_aggregator in
      Update.Announce { prefix; as_path; aggregator }
  | 1 -> Update.Withdraw { prefix = r_prefix r }
  | tag ->
      raise (Codec.Malformed (Printf.sprintf "unknown update tag %d" tag))

let w_fault_event w = function
  | Network.Fault_link_down { a; b } ->
      Codec.u8 w 0;
      w_asn w a;
      w_asn w b
  | Network.Fault_link_up { a; b } ->
      Codec.u8 w 1;
      w_asn w a;
      w_asn w b
  | Network.Fault_session_reset { a; b } ->
      Codec.u8 w 2;
      w_asn w a;
      w_asn w b
  | Network.Fault_session_down { owner; peer; reason } ->
      Codec.u8 w 3;
      w_asn w owner;
      w_asn w peer;
      Codec.string w reason
  | Network.Fault_session_up { owner; peer } ->
      Codec.u8 w 4;
      w_asn w owner;
      w_asn w peer
  | Network.Fault_update_lost { from_asn; to_asn; prefix } ->
      Codec.u8 w 5;
      w_asn w from_asn;
      w_asn w to_asn;
      w_prefix w prefix
  | Network.Fault_update_duplicated { from_asn; to_asn; prefix } ->
      Codec.u8 w 6;
      w_asn w from_asn;
      w_asn w to_asn;
      w_prefix w prefix

let r_fault_event r =
  match Codec.read_u8 r with
  | 0 ->
      let a = r_asn r in
      let b = r_asn r in
      Network.Fault_link_down { a; b }
  | 1 ->
      let a = r_asn r in
      let b = r_asn r in
      Network.Fault_link_up { a; b }
  | 2 ->
      let a = r_asn r in
      let b = r_asn r in
      Network.Fault_session_reset { a; b }
  | 3 ->
      let owner = r_asn r in
      let peer = r_asn r in
      let reason = Codec.read_string r in
      Network.Fault_session_down { owner; peer; reason }
  | 4 ->
      let owner = r_asn r in
      let peer = r_asn r in
      Network.Fault_session_up { owner; peer }
  | 5 ->
      let from_asn = r_asn r in
      let to_asn = r_asn r in
      let prefix = r_prefix r in
      Network.Fault_update_lost { from_asn; to_asn; prefix }
  | 6 ->
      let from_asn = r_asn r in
      let to_asn = r_asn r in
      let prefix = r_prefix r in
      Network.Fault_update_duplicated { from_asn; to_asn; prefix }
  | tag ->
      raise (Codec.Malformed (Printf.sprintf "unknown fault tag %d" tag))

let w_timed f w (time, v) =
  Codec.float w time;
  f w v

let r_timed f r =
  let time = Codec.read_float r in
  let v = f r in
  (time, v)

let w_stats w (s : Network.stats) =
  Codec.int w s.Network.deliveries;
  Codec.int w s.Network.announcements;
  Codec.int w s.Network.withdrawals;
  Codec.int w s.Network.lost;
  Codec.int w s.Network.duplicated;
  Codec.int w s.Network.session_drops;
  Codec.int w s.Network.session_recoveries

let r_stats r : Network.stats =
  let deliveries = Codec.read_int r in
  let announcements = Codec.read_int r in
  let withdrawals = Codec.read_int r in
  let lost = Codec.read_int r in
  let duplicated = Codec.read_int r in
  let session_drops = Codec.read_int r in
  let session_recoveries = Codec.read_int r in
  {
    Network.deliveries;
    announcements;
    withdrawals;
    lost;
    duplicated;
    session_drops;
    session_recoveries;
  }

let encode_shard_result (sr : Sharded.shard_result) =
  let w = Codec.writer () in
  Codec.list w
    (fun w (asn, feed) ->
      w_asn w asn;
      Codec.list w (w_timed w_update) feed)
    sr.Sharded.shard_feeds;
  w_stats w sr.Sharded.shard_stats;
  Codec.list w (w_timed w_fault_event) sr.Sharded.shard_fault_log;
  Codec.int w sr.Sharded.shard_events_count;
  Codec.contents w

let decode_shard_result payload =
  let r = Codec.reader payload in
  let shard_feeds =
    Codec.read_list r (fun r ->
        let asn = r_asn r in
        let feed = Codec.read_list r (r_timed r_update) in
        (asn, feed))
  in
  let shard_stats = r_stats r in
  let shard_fault_log = Codec.read_list r (r_timed r_fault_event) in
  let shard_events_count = Codec.read_int r in
  Codec.expect_end r;
  {
    Sharded.shard_feeds;
    shard_stats;
    shard_fault_log;
    shard_events_count;
  }

(* --- hooks --- *)

let shard_key ~shard ~shards = Printf.sprintf "sim.shard%dof%d" shard shards

(* The shard count is the prefix count, which the fingerprint pins, so
   only a store written before shards became one per prefix can hold keys
   under another count; nothing would ever read them.  Quarantined files
   are kept, as by [wipe_snapshots]. *)
let remove_stale_shards t ~shards =
  let stale f =
    Filename.check_suffix f ".ck"
    && Scanf.sscanf_opt f "sim.shard%_uof%u.%s" (fun n _ -> n <> shards)
       = Some true
  in
  Array.iter
    (fun f ->
      if stale f then
        try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
    (try Sys.readdir t.dir with Sys_error _ -> [||])

let sim_hooks t =
  (* A fresh run starts from an empty store; a resumed one sweeps once,
     at the first shard's load. *)
  let swept = Atomic.make (not t.resume) in
  {
    Sharded.load_shard =
      (fun ~shard ~shards ->
        if not (Atomic.exchange swept true) then
          remove_stale_shards t ~shards;
        load_decoded t ~key:(shard_key ~shard ~shards) decode_shard_result);
    save_shard =
      (fun ~shard ~shards sr ->
        save_payload t
          ~key:(shard_key ~shard ~shards)
          (encode_shard_result sr));
  }

let chain_hooks t ~namespace =
  {
    Chain_ckpt.load =
      (fun ~key ->
        load_decoded t ~key:(namespace ^ key) Chain_ckpt.decode_saved);
    save =
      (fun ~key ~sweep:_ sv ->
        save_payload t ~key:(namespace ^ key) (Chain_ckpt.encode_saved sv));
    every_sweeps = t.every_sweeps;
    every_seconds = Some Chain_ckpt.default_every_seconds;
  }

(* The final telemetry view: replace-on-write, never read on resume. *)
let save_telemetry t snapshot =
  save_payload t ~key:"telemetry.json"
    (Because_telemetry.Export.to_json snapshot)

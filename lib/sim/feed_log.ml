(* Streaming collector-feed log.

   At Internet scale a single full-feed vantage point observes hundreds of
   thousands of updates; holding every monitored AS's feed as an in-memory
   list makes campaign RSS proportional to the whole update volume.  This
   module gives the network a bounded buffer per vantage that spills to a
   compact binary on-disk log, so resident feed state is O(buffer), not
   O(observations).

   The on-disk format reuses the checkpoint layer's fixed-width Codec: each
   flush appends one self-delimiting block — a length-prefixed payload of
   (float time, update) records followed by the payload's CRC-32 — so a torn
   final write is detected rather than silently mis-decoded, exactly like a
   checkpoint envelope.  Floats travel as their 64 bits, so a feed read back
   from disk is bit-for-bit the feed that was recorded. *)

open Because_bgp
module Codec = Because_recover.Codec

(* --- wire codecs ---

   Shared with the scenario checkpoint layer (Recovery re-exports them for
   its shard-result envelopes): the RFC 4271 wire codec is deliberately
   lossy (whole-second timestamps, collapsed invalid aggregators), so both
   durable forms of an update use this exact encoding instead. *)

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

(* --- spill configuration --- *)

type spill = { dir : string; buffer : int }

let default_buffer = 4096

(* --- writer ---

   The file stays closed between flushes: a 10k-AS world with 400+ monitored
   vantages per shard would otherwise exhaust the descriptor limit.  A flush
   is one open-append-close, so at most one descriptor is live at a time per
   writer and writers are safe to hold by the hundred. *)

type writer = {
  path : string;
  cap : int;
  mutable pending : (float * Update.t) list;  (* newest first *)
  mutable n_pending : int;
}

let writer ~dir ~asn ~buffer =
  Because_recover.Io.mkdir_p dir;
  let path =
    Filename.concat dir (Printf.sprintf "feed-%d.log" (Asn.to_int asn))
  in
  (* A stale log from a previous run under the same directory must not be
     replayed into this one. *)
  if Sys.file_exists path then Sys.remove path;
  { path; cap = max 1 buffer; pending = []; n_pending = 0 }

let path w = w.path

let flush w =
  (match w.pending with
  | [] -> ()
  | pending ->
      let body = Codec.writer () in
      List.iter
        (fun (time, u) ->
          Codec.float body time;
          w_update body u)
        (List.rev pending);
      let payload = Codec.contents body in
      let block = Codec.writer () in
      Codec.string block payload;
      Codec.i64 block (Int64.of_int32 (Codec.crc32_string payload));
      let oc =
        open_out_gen
          [ Open_wronly; Open_append; Open_creat; Open_binary ]
          0o644 w.path
      in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Codec.contents block));
      w.pending <- [];
      w.n_pending <- 0);
  w.path

let append w ~time update =
  w.pending <- (time, update) :: w.pending;
  w.n_pending <- w.n_pending + 1;
  if w.n_pending >= w.cap then ignore (flush w)

(* --- reader ---

   Blocks stream through a fixed window: one block's payload is resident at
   a time, so replaying a multi-gigabyte feed log never materializes it. *)

let iter path f =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        let rec block () =
          if pos_in ic < len then begin
            if pos_in ic + 8 > len then
              raise (Codec.Malformed "feed log: torn block header");
            let n = Int64.to_int (String.get_int64_le (really_input_string ic 8) 0) in
            if n < 0 || pos_in ic + n + 8 > len then
              raise (Codec.Malformed "feed log: torn block body");
            let payload = really_input_string ic n in
            let crc = Int64.to_int32 (String.get_int64_le (really_input_string ic 8) 0) in
            if not (Int32.equal crc (Codec.crc32_string payload)) then
              raise (Codec.Malformed "feed log: block checksum mismatch");
            let r = Codec.reader payload in
            while not (Codec.at_end r) do
              let time = Codec.read_float r in
              let u = r_update r in
              f time u
            done;
            block ()
          end
        in
        block ())
  end

let entries path =
  let acc = ref [] in
  iter path (fun time u -> acc := (time, u) :: !acc);
  List.rev !acc

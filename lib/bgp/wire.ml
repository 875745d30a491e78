type error =
  | Truncated of string
  | Bad_marker
  | Bad_message_type of int
  | Bad_attribute of string
  | Trailing_bytes of int

let pp_error fmt = function
  | Truncated what -> Format.fprintf fmt "truncated %s" what
  | Bad_marker -> Format.pp_print_string fmt "bad marker"
  | Bad_message_type t -> Format.fprintf fmt "unexpected message type %d" t
  | Bad_attribute what -> Format.fprintf fmt "bad attribute: %s" what
  | Trailing_bytes n -> Format.fprintf fmt "%d trailing bytes" n

(* ------------------------------------------------------------------ *)
(* Little byte-buffer helpers                                           *)

let u8 buf v = Buffer.add_uint8 buf (v land 0xFF)
let u16 buf v = Buffer.add_uint16_be buf (v land 0xFFFF)
let u32 buf v = Buffer.add_int32_be buf v

type reader = { data : bytes; mutable pos : int }

let read_u8 r what =
  if r.pos + 1 > Bytes.length r.data then Error (Truncated what)
  else begin
    let v = Bytes.get_uint8 r.data r.pos in
    r.pos <- r.pos + 1;
    Ok v
  end

let read_u16 r what =
  if r.pos + 2 > Bytes.length r.data then Error (Truncated what)
  else begin
    let v = Bytes.get_uint16_be r.data r.pos in
    r.pos <- r.pos + 2;
    Ok v
  end

let read_u32 r what =
  if r.pos + 4 > Bytes.length r.data then Error (Truncated what)
  else begin
    let v = Bytes.get_int32_be r.data r.pos in
    r.pos <- r.pos + 4;
    Ok v
  end

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Prefix encoding: length octet + ceil(len/8) network octets.          *)

let encode_prefix buf prefix =
  let len = Prefix.length prefix in
  let network = Prefix.network prefix in
  u8 buf len;
  let octets = (len + 7) / 8 in
  for i = 0 to octets - 1 do
    u8 buf
      (Int32.to_int
         (Int32.logand (Int32.shift_right_logical network (24 - (8 * i))) 255l))
  done

let decode_prefix r =
  let* len = read_u8 r "prefix length" in
  if len > 32 then Error (Bad_attribute "prefix length > 32")
  else begin
    let octets = (len + 7) / 8 in
    let rec collect i acc =
      if i = octets then Ok acc
      else
        let* b = read_u8 r "prefix octet" in
        collect (i + 1)
          (Int32.logor acc (Int32.shift_left (Int32.of_int b) (24 - (8 * i))))
    in
    let* network = collect 0 0l in
    Ok (Prefix.make network len)
  end

(* ------------------------------------------------------------------ *)
(* Attributes                                                           *)

let origin_igp = 0
let attr_origin = 1
let attr_as_path = 2
let attr_next_hop = 3
let attr_aggregator = 7
let flag_transitive = 0x40
let flag_optional = 0x80

let add_attribute buf ~flags ~code payload =
  u8 buf flags;
  u8 buf code;
  u8 buf (Bytes.length payload);
  Buffer.add_bytes buf payload

let as_path_payload as_path =
  let buf = Buffer.create 32 in
  u8 buf 2 (* AS_SEQUENCE *);
  u8 buf (List.length as_path);
  List.iter (fun asn -> u32 buf (Int32.of_int (Asn.to_int asn))) as_path;
  Buffer.to_bytes buf

let aggregator_payload (agg : Update.aggregator) =
  let buf = Buffer.create 8 in
  u32 buf (Int32.of_int (Asn.to_int agg.Update.aggregator_asn));
  (* The Beacon timestamp rides in the aggregator IP field; an invalid
     aggregator is the all-zero address the paper observed and discarded. *)
  let stamp =
    if agg.Update.valid then Int32.of_float (Float.max 0.0 agg.Update.sent_at)
    else 0l
  in
  u32 buf stamp;
  Buffer.to_bytes buf

let encode update =
  let body = Buffer.create 64 in
  (match update with
  | Update.Withdraw { prefix } ->
      let withdrawn = Buffer.create 8 in
      encode_prefix withdrawn prefix;
      u16 body (Buffer.length withdrawn);
      Buffer.add_buffer body withdrawn;
      u16 body 0 (* no path attributes *)
  | Update.Announce { prefix; as_path; aggregator } ->
      u16 body 0 (* no withdrawn routes *);
      let attrs = Buffer.create 48 in
      add_attribute attrs ~flags:flag_transitive ~code:attr_origin
        (Bytes.make 1 (Char.chr origin_igp));
      add_attribute attrs ~flags:flag_transitive ~code:attr_as_path
        (as_path_payload as_path);
      add_attribute attrs ~flags:flag_transitive ~code:attr_next_hop
        (Bytes.make 4 '\000');
      (match aggregator with
      | Some agg ->
          add_attribute attrs
            ~flags:(flag_optional lor flag_transitive)
            ~code:attr_aggregator (aggregator_payload agg)
      | None -> ());
      u16 body (Buffer.length attrs);
      Buffer.add_buffer body attrs;
      encode_prefix body prefix);
  let message = Buffer.create 96 in
  for _ = 1 to 16 do
    u8 message 0xFF
  done;
  u16 message (19 + Buffer.length body);
  u8 message 2 (* UPDATE *);
  Buffer.add_buffer message body;
  Buffer.to_bytes message

let decode_as_path r ~until =
  let* segment_type = read_u8 r "AS_PATH segment type" in
  if segment_type <> 2 then Error (Bad_attribute "AS_PATH segment not a sequence")
  else begin
    let* count = read_u8 r "AS_PATH length" in
    let rec collect k acc =
      if k = 0 then Ok (List.rev acc)
      else
        let* v = read_u32 r "AS_PATH member" in
        collect (k - 1) (Asn.of_int (Int32.to_int v land 0xFFFFFFFF) :: acc)
    in
    let* path = collect count [] in
    if r.pos <> until then Error (Bad_attribute "AS_PATH length mismatch")
    else Ok path
  end

let decode_aggregator r =
  let* asn = read_u32 r "aggregator ASN" in
  let* stamp = read_u32 r "aggregator IP" in
  let valid = stamp <> 0l in
  Ok
    {
      Update.aggregator_asn = Asn.of_int (Int32.to_int asn land 0xFFFFFFFF);
      sent_at = Int32.to_float (Int32.logand stamp 0x7FFFFFFFl);
      valid;
    }

let decode_one r =
  (* Header *)
  let rec check_marker i =
    if i = 16 then Ok ()
    else
      let* b = read_u8 r "marker" in
      if b <> 0xFF then Error Bad_marker else check_marker (i + 1)
  in
  let* () = check_marker 0 in
  let* length = read_u16 r "length" in
  let* msg_type = read_u8 r "type" in
  if msg_type <> 2 then Error (Bad_message_type msg_type)
  else begin
    let body_end = r.pos + length - 19 in
    if body_end > Bytes.length r.data then Error (Truncated "body")
    else begin
      let* withdrawn_len = read_u16 r "withdrawn length" in
      let withdrawn_end = r.pos + withdrawn_len in
      let* withdrawn =
        if withdrawn_len = 0 then Ok None
        else
          let* p = decode_prefix r in
          if r.pos <> withdrawn_end then
            Error (Bad_attribute "withdrawn-routes length mismatch")
          else Ok (Some p)
      in
      let* attrs_len = read_u16 r "attributes length" in
      let attrs_end = r.pos + attrs_len in
      if attrs_end > body_end then Error (Truncated "attributes")
      else begin
        let as_path = ref None and aggregator = ref None in
        let rec attrs () =
          if r.pos >= attrs_end then Ok ()
          else begin
            let* flags = read_u8 r "attribute flags" in
            let* code = read_u8 r "attribute code" in
            let* len =
              if flags land 0x10 <> 0 then read_u16 r "attribute length"
              else read_u8 r "attribute length"
            in
            let value_end = r.pos + len in
            if value_end > attrs_end then Error (Truncated "attribute value")
            else begin
              let* () =
                if code = attr_as_path then begin
                  let* path = decode_as_path r ~until:value_end in
                  as_path := Some path;
                  Ok ()
                end
                else if code = attr_aggregator then begin
                  let* agg = decode_aggregator r in
                  if r.pos <> value_end then
                    Error (Bad_attribute "aggregator length mismatch")
                  else begin
                    aggregator := Some agg;
                    Ok ()
                  end
                end
                else if code = attr_origin || code = attr_next_hop
                        || flags land flag_optional <> 0 then begin
                  r.pos <- value_end;
                  Ok ()
                end
                else
                  Error
                    (Bad_attribute
                       (Printf.sprintf "unknown well-known attribute %d" code))
              in
              attrs ()
            end
          end
        in
        let* () = attrs () in
        match withdrawn with
        | Some prefix ->
            if r.pos <> body_end then Error (Trailing_bytes (body_end - r.pos))
            else Ok (Update.Withdraw { prefix })
        | None -> (
            (* NLRI *)
            let* prefix = decode_prefix r in
            if r.pos <> body_end then Error (Trailing_bytes (body_end - r.pos))
            else
              match !as_path with
              | None -> Error (Bad_attribute "announcement without AS_PATH")
              | Some as_path ->
                  Ok (Update.Announce { prefix; as_path; aggregator = !aggregator }))
      end
    end
  end

let decode data =
  let r = { data; pos = 0 } in
  let* update = decode_one r in
  if r.pos <> Bytes.length data then
    Error (Trailing_bytes (Bytes.length data - r.pos))
  else Ok update

let encode_many updates =
  let buf = Buffer.create 256 in
  List.iter (fun u -> Buffer.add_bytes buf (encode u)) updates;
  Buffer.to_bytes buf

let decode_many data =
  let r = { data; pos = 0 } in
  let rec go acc =
    if r.pos = Bytes.length data then Ok (List.rev acc)
    else
      let* u = decode_one r in
      go (u :: acc)
  in
  go []

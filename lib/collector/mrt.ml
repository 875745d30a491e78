open Because_bgp

let mrt_type_bgp4mp_et = 17
let subtype_message_as4 = 4

let project_code = function
  | Project.Ris -> 1
  | Project.Routeviews -> 2
  | Project.Isolario -> 3

let project_of_code = function
  | 1 -> Ok Project.Ris
  | 2 -> Ok Project.Routeviews
  | 3 -> Ok Project.Isolario
  | c -> Error (Printf.sprintf "unknown collector project code %d" c)

let encode_record buf (r : Dump.record) =
  let message = Wire.encode r.Dump.update in
  let seconds = int_of_float r.Dump.export_at in
  let micros =
    int_of_float ((r.Dump.export_at -. float_of_int seconds) *. 1e6)
  in
  let body = Buffer.create (Bytes.length message + 24) in
  Buffer.add_int32_be body (Int32.of_int micros);
  Buffer.add_int32_be body
    (Int32.of_int (Asn.to_int r.Dump.vp.Vantage.host_asn));
  Buffer.add_int32_be body 0l (* local (collector) AS *);
  Buffer.add_uint16_be body 0 (* interface index *);
  Buffer.add_uint16_be body 1 (* AFI: IPv4 *);
  Buffer.add_int32_be body (Int32.of_int r.Dump.vp.Vantage.vp_id);
  Buffer.add_int32_be body
    (Int32.of_int (project_code r.Dump.vp.Vantage.project));
  Buffer.add_bytes body message;
  (* MRT common header *)
  Buffer.add_int32_be buf (Int32.of_int seconds);
  Buffer.add_uint16_be buf mrt_type_bgp4mp_et;
  Buffer.add_uint16_be buf subtype_message_as4;
  Buffer.add_int32_be buf (Int32.of_int (Buffer.length body));
  Buffer.add_buffer buf body

let encode_records records =
  let buf = Buffer.create (4096 * List.length records) in
  List.iter (encode_record buf) records;
  Buffer.to_bytes buf

let decode_records data =
  let len = Bytes.length data in
  let pos = ref 0 in
  let read_u16 () =
    let v = Bytes.get_uint16_be data !pos in
    pos := !pos + 2;
    v
  in
  let read_u32 () =
    let v = Int32.to_int (Bytes.get_int32_be data !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  let rec go acc =
    if !pos = len then Ok (List.rev acc)
    else if !pos + 12 > len then Error "truncated MRT header"
    else begin
      let seconds = read_u32 () in
      let mrt_type = read_u16 () in
      let subtype = read_u16 () in
      let body_len = read_u32 () in
      if mrt_type <> mrt_type_bgp4mp_et || subtype <> subtype_message_as4 then
        Error
          (Printf.sprintf "unsupported MRT record type %d/%d" mrt_type subtype)
      else if !pos + body_len > len then Error "truncated MRT body"
      else begin
        let body_end = !pos + body_len in
        if body_len < 24 then Error "MRT body too short"
        else begin
          let micros = read_u32 () in
          let peer_as = read_u32 () in
          let _local_as = read_u32 () in
          let _iface = read_u16 () in
          let afi = read_u16 () in
          let vp_id = read_u32 () in
          let code = read_u32 () in
          if afi <> 1 then Error (Printf.sprintf "unsupported AFI %d" afi)
          else begin
            match project_of_code code with
            | Error e -> Error e
            | Ok project -> (
                let message = Bytes.sub data !pos (body_end - !pos) in
                pos := body_end;
                match Wire.decode message with
                | Error e ->
                    Error (Format.asprintf "BGP decode: %a" Wire.pp_error e)
                | Ok update ->
                    let export_at =
                      float_of_int seconds +. (float_of_int micros /. 1e6)
                    in
                    let vp =
                      Vantage.make ~vp_id ~host_asn:(Asn.of_int peer_as)
                        ~project
                    in
                    let record =
                      { Dump.received_at = export_at; export_at; vp; update }
                    in
                    go (record :: acc))
          end
        end
      end
    end
  in
  go []

let write_file path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (encode_records records))

let io_error path e =
  let prefix = path ^ ": " in
  let n = String.length prefix in
  if String.starts_with ~prefix e then String.sub e n (String.length e - n)
  else e

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error (io_error path e)
  | data -> decode_records (Bytes.of_string data)

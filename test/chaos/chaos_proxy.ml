(* chaos_proxy — socket-level fault injection driver for the service
   plane.

   Starts a {!Fault_proxy} in front of a running HTTP
   server, fires a deterministic probe schedule through it (slowloris'd,
   stalled, reset, and flooded connections mixed with clean ones), and
   classifies what came back.  A response is TORN when it is complete by
   its own framing (headers + declared Content-Length) but malformed —
   fault-truncated responses are expected weather, torn ones are server
   bugs.  Exit 0 when zero torn responses, 1 otherwise.

   Usage: chaos_proxy --upstream-port P [--port 0] [--seed N]
                      [--requests 64] [--flood 32] *)

module Proxy = Fault_proxy

let upstream_port = ref 0
let listen_port = ref 0
let seed = ref 1
let requests = ref 64
let flood_conns = ref 32

let spec =
  [ ("--upstream-port", Arg.Set_int upstream_port, "PORT upstream server");
    ("--port", Arg.Set_int listen_port, "PORT proxy listen port (0 = any)");
    ("--seed", Arg.Set_int seed, "N deterministic fault schedule seed");
    ("--requests", Arg.Set_int requests, "N probe requests (default 64)");
    ("--flood", Arg.Set_int flood_conns, "N idle flood connections") ]

let usage = "chaos_proxy --upstream-port PORT [options]"

let recv_all fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 3.0
   with Unix.Unix_error _ -> ());
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  Buffer.contents buf

(* Classify one raw byte stream.  [`Complete] means the framing closed:
   we saw the header terminator and at least Content-Length body bytes.
   Only complete responses can be torn. *)
let classify raw =
  if raw = "" then `Empty
  else
    match String.index_opt raw ' ' with
    | None -> `Truncated
    | Some _ -> (
        let is_http = String.length raw >= 8 && String.sub raw 0 5 = "HTTP/" in
        if not is_http then `Torn
        else
          let hdr_end =
            let rec find i =
              if i + 3 >= String.length raw then None
              else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
              else find (i + 1)
            in
            find 0
          in
          match hdr_end with
          | None -> `Truncated
          | Some body_off -> (
              let headers = String.sub raw 0 body_off in
              let clen =
                let lower = String.lowercase_ascii headers in
                match
                  let tag = "content-length:" in
                  let rec find i =
                    if i + String.length tag > String.length lower then None
                    else if String.sub lower i (String.length tag) = tag then
                      Some (i + String.length tag)
                    else find (i + 1)
                  in
                  find 0
                with
                | None -> None
                | Some off ->
                    let stop =
                      match String.index_from_opt lower off '\r' with
                      | Some j -> j
                      | None -> String.length lower
                    in
                    int_of_string_opt
                      (String.trim (String.sub lower off (stop - off)))
              in
              match clen with
              | None -> `Complete (* no body contract to violate *)
              | Some n ->
                  let body_len = String.length raw - body_off in
                  if body_len < n then `Truncated
                  else if body_len > n then `Torn
                  else `Complete))

let probe ~port ~path =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port))
      with
      | exception Unix.Unix_error _ -> `Refused
      | () ->
          let req =
            Printf.sprintf
              "GET %s HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n"
              path
          in
          (try
             ignore (Unix.write_substring fd req 0 (String.length req))
           with Unix.Unix_error _ -> ());
          classify (recv_all fd))

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !upstream_port <= 0 then begin
    prerr_endline "chaos_proxy: --upstream-port is required";
    exit 2
  end;
  let proxy =
    Proxy.start ~seed:!seed ~upstream_port:!upstream_port ~port:!listen_port
      ()
  in
  let port = Proxy.port proxy in
  let paths = [| "/status"; "/metrics"; "/matrix"; "/estimates" |] in
  let complete = ref 0
  and torn = ref 0
  and truncated = ref 0
  and empty = ref 0
  and refused = ref 0 in
  for i = 0 to !requests - 1 do
    (match probe ~port ~path:paths.(i mod Array.length paths) with
    | `Complete -> incr complete
    | `Torn -> incr torn
    | `Truncated -> incr truncated
    | `Empty -> incr empty
    | `Refused -> incr refused);
    if i = !requests / 2 && !flood_conns > 0 then
      ignore (Proxy.flood ~conns:!flood_conns ~hold_s:0.1 ~port ())
  done;
  let stats = Proxy.stats proxy in
  Proxy.stop proxy;
  Printf.printf
    "{ \"requests\": %d, \"complete\": %d, \"torn\": %d, \"truncated\": %d, \
     \"empty\": %d, \"refused\": %d, \"proxy\": { \"conns\": %d, \
     \"resets\": %d, \"stalls\": %d, \"trickled\": %d } }\n"
    !requests !complete !torn !truncated !empty !refused stats.Proxy.conns
    stats.Proxy.resets stats.Proxy.stalls stats.Proxy.trickled;
  if !torn > 0 then exit 1

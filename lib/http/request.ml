type t = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
  deadline : float option;
}

type error =
  | Bad_request of string
  | Too_large of string

let error_status = function Bad_request _ -> 400 | Too_large _ -> 413

let error_message = function Bad_request m -> m | Too_large m -> m

type limits = { max_head : int; max_body : int }

let default_limits = { max_head = 8192; max_body = 65536 }

let max_headers = 100

(* Control-flow exception, never escapes [parse]. *)
exception Fail of error

let fail fmt = Printf.ksprintf (fun m -> raise (Fail (Bad_request m))) fmt

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let decode ~plus s =
  if not (String.exists (fun c -> c = '%' || c = '+') s) then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '+' when plus -> Buffer.add_char b ' '
      | '%' when !i + 2 < n && hex_val s.[!i + 1] >= 0 && hex_val s.[!i + 2] >= 0
        ->
          Buffer.add_char b
            (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
          i := !i + 2
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b
  end

let percent_decode s = decode ~plus:true s

let parse_query q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun pair ->
           if pair = "" then None
           else
             match String.index_opt pair '=' with
             | None -> Some (decode ~plus:true pair, "")
             | Some i ->
                 Some
                   ( decode ~plus:true (String.sub pair 0 i),
                     decode ~plus:true
                       (String.sub pair (i + 1) (String.length pair - i - 1)) ))

let is_token_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
  | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^' | '_'
  | '`' | '|' | '~' ->
      true
  | _ -> false

let trim_ows s =
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < n && (s.[!i] = ' ' || s.[!i] = '\t') do incr i done;
  while !j > !i && (s.[!j - 1] = ' ' || s.[!j - 1] = '\t') do decr j done;
  String.sub s !i (!j - !i)

(* Find "\r\n\r\n" in [s] starting at [pos]; [None] when absent. *)
let find_head_end s ~pos =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go pos

let split_lines head =
  (* [head] excludes the terminating blank line; every line ends in \r\n
     except we receive it already stripped of the final \r\n\r\n. *)
  String.split_on_char '\n' head
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
      if meth = "" || not (String.for_all is_token_char meth) then
        fail "malformed method";
      if target = "" then fail "empty request target";
      if version <> "HTTP/1.1" && version <> "HTTP/1.0" then
        fail "unsupported HTTP version %S" version;
      (meth, target, version)
  | _ -> fail "malformed request line"

let parse_header line =
  match String.index_opt line ':' with
  | None | Some 0 -> fail "malformed header line"
  | Some i ->
      let name = String.sub line 0 i in
      if not (String.for_all is_token_char name) then
        fail "malformed header name";
      let value = trim_ows (String.sub line (i + 1) (String.length line - i - 1)) in
      if String.exists (fun c -> Char.code c < 0x20 && c <> '\t') value then
        fail "control byte in header value";
      (String.lowercase_ascii name, value)

let header t name =
  List.assoc_opt (String.lowercase_ascii name) t.headers

let content_length headers =
  match List.filter (fun (n, _) -> n = "content-length") headers with
  | [] -> 0
  | [ (_, v) ] -> (
      match int_of_string_opt (trim_ows v) with
      | Some n when n >= 0 -> n
      | _ -> fail "malformed Content-Length %S" v)
  | _ :: _ :: _ -> fail "multiple Content-Length headers"

let parse ?(limits = default_limits) buf ~pos =
  let total = String.length buf in
  try
    match find_head_end buf ~pos with
    | None ->
        if total - pos > limits.max_head then
          `Error (Too_large "request head exceeds limit")
        else `More
    | Some head_end ->
        if head_end - pos > limits.max_head then
          raise (Fail (Too_large "request head exceeds limit"));
        let head = String.sub buf pos (head_end - pos) in
        let body_start = head_end + 4 in
        (match split_lines head with
        | [] | [ "" ] -> `Error (Bad_request "empty request")
        | request_line :: header_lines ->
            let meth, target, version = parse_request_line request_line in
            if List.length header_lines > max_headers then
              fail "too many headers";
            let headers = List.map parse_header header_lines in
            if List.mem_assoc "transfer-encoding" headers then
              fail "Transfer-Encoding is not supported";
            let clen = content_length headers in
            if clen > limits.max_body then
              raise (Fail (Too_large "declared body exceeds limit"));
            if total - body_start < clen then `More
            else begin
              let body = String.sub buf body_start clen in
              let path_raw, query_raw =
                match String.index_opt target '?' with
                | None -> (target, "")
                | Some i ->
                    ( String.sub target 0 i,
                      String.sub target (i + 1) (String.length target - i - 1)
                    )
              in
              let req =
                {
                  meth;
                  target;
                  path = decode ~plus:false path_raw;
                  query = parse_query query_raw;
                  version;
                  headers;
                  body;
                  deadline = None;
                }
              in
              `Ok (req, body_start + clen)
            end)
  with Fail e -> `Error e

let remaining_s t =
  Option.map (fun d -> d -. Unix.gettimeofday ()) t.deadline

let keep_alive t =
  let conn =
    Option.map String.lowercase_ascii (header t "connection")
  in
  match t.version, conn with
  | _, Some "close" -> false
  | "HTTP/1.0", Some "keep-alive" -> true
  | "HTTP/1.0", _ -> false
  | _, _ -> true

let query_param t name = List.assoc_opt name t.query

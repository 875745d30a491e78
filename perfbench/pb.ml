(* Shared benchmark plumbing: clocks, order statistics, the result line,
   process gauges and a minimal keep-alive HTTP/1.1 client for loopback
   load generation.  Nothing here touches the program's RNG streams. *)

(* ---------------------------------------------------------------- clocks *)

(* The same monotonic clock the telemetry spans use, so span start times
   and benchmark timestamps are directly comparable. *)
let now_ns () = Monotonic_clock.now ()
let secs a b = Int64.to_float (Int64.sub b a) /. 1e9

(* Process CPU (user + system, every domain and thread).  Time stolen by a
   co-tenant is not charged here, unlike wall time. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------ statistics *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A missing statistic (no samples of that kind) reads 0 rather than NaN:
   the result line must stay valid JSON. *)
let or_zero x = if Float.is_finite x then x else 0.0

(* ---------------------------------------------------------- process gauges *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

let log fmt = Printf.ksprintf (fun s -> prerr_endline s) fmt

(* Workload seeds are mixed into derived seeds (MCMC streams, read
   targets) so that different workload seeds draw different inputs. *)
let derive seed tag k = (Hashtbl.hash (seed, tag, k) land 0x3fffffff) + 1

let rng seed tag = Random.State.make [| derive seed tag 0 |]

(* A seeded permutation. *)
let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ----------------------------------------------------------- result line *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value = or_zero value; unit_ }

let emit ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name x.value
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* ------------------------------------------------------------ state dirs *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh scratch directory under the run's state root (inside the
   checkout: the benchmark writes nowhere else). *)
let fresh_dir root name =
  let dir = Filename.concat root name in
  rm_rf dir;
  mkdir_p dir;
  dir

(* ------------------------------------------------------------ HTTP client *)

type conn = { fd : Unix.file_descr; pending : Buffer.t; scratch : Bytes.t }

type response = {
  status : int;
  headers : (string * string) list;  (** Lower-cased names. *)
  body : string;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0;
  { fd; pending = Buffer.create 4096; scratch = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

let find_sub s sub from =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then -1
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go from

let fill c =
  let n = Unix.read c.fd c.scratch 0 (Bytes.length c.scratch) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.pending c.scratch 0 n

let rec read_head c =
  match find_sub (Buffer.contents c.pending) "\r\n\r\n" 0 with
  | -1 ->
      fill c;
      read_head c
  | i -> i

let recv c =
  let head_end = read_head c in
  let all = Buffer.contents c.pending in
  let lines = String.split_on_char '\n' (String.sub all 0 head_end) in
  let status =
    match lines with
    | l :: _ when String.length l >= 12 -> int_of_string (String.sub l 9 3)
    | _ -> failwith "malformed status line"
  in
  let headers =
    List.filter_map
      (fun l ->
        match String.index_opt l ':' with
        | None -> None
        | Some i ->
            Some
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
      (List.tl lines)
  in
  let clen =
    match List.assoc_opt "content-length" headers with
    | Some v -> int_of_string v
    | None -> 0
  in
  while Buffer.length c.pending < head_end + 4 + clen do
    fill c
  done;
  let all = Buffer.contents c.pending in
  let body = String.sub all (head_end + 4) clen in
  let rest = String.sub all (head_end + 4 + clen)
      (String.length all - head_end - 4 - clen) in
  Buffer.clear c.pending;
  Buffer.add_string c.pending rest;
  { status; headers; body }

let request c ?(body = "") meth path =
  let req =
    if meth = "GET" then
      Printf.sprintf "GET %s HTTP/1.1\r\nHost: bench\r\n\r\n" path
    else
      Printf.sprintf
        "%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s" meth
        path (String.length body) body
  in
  write_all c.fd req 0;
  recv c

let generation r =
  match List.assoc_opt "x-generation" r.headers with
  | Some g -> int_of_string_opt g
  | None -> None

(* Occurrences of [sub] in [s]. *)
let count_sub s sub =
  let rec go from acc =
    match find_sub s sub from with
    | -1 -> acc
    | i -> go (i + String.length sub) (acc + 1)
  in
  go 0 0

(* The integer following [key] in a JSON object rendered on one line. *)
let int_field line key =
  match find_sub line key 0 with
  | -1 -> None
  | i ->
      let j = ref (i + String.length key) in
      while !j < String.length line && (line.[!j] = ' ' || line.[!j] = ':') do
        incr j
      done;
      let k = ref !j in
      while !k < String.length line && line.[!k] >= '0' && line.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub line !j (!k - !j))

(* The line of the /status document describing campaign [id]. *)
let status_line doc ~id =
  List.find_opt
    (fun l -> find_sub l (Printf.sprintf "\"id\": \"%s\"" id) 0 >= 0)
    (String.split_on_char '\n' doc)

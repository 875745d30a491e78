(* Durable on-disk checkpoint store.

   Layout of a store directory:

     MANIFEST            envelope, payload = fingerprint string
     <key>.ck            current snapshot for [key]
     <key>.prev.ck       previous snapshot (fallback if .ck is corrupt)
     <key>.ck.corrupt-*  quarantined files that failed CRC/version checks

   Every file is a self-checking envelope: magic + format version + key +
   payload, followed by the CRC-32 of everything before it.  Writes go
   through a temp file and rename so a crash mid-write can never destroy
   the last good snapshot; the previous snapshot is rotated aside before
   the rename so even a post-rename corruption (bad disk) still leaves a
   recovery point. *)

let magic = "BCKP"
let version = 1

type t = {
  dir : string;
  fingerprint : string;
  mutex : Mutex.t;
  mutable warnings : string list; (* newest first *)
  mutable saves : int;
  mutable restores : int;
  mutable fallbacks : int;
}

let warn t fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.lock t.mutex;
      t.warnings <- s :: t.warnings;
      Mutex.unlock t.mutex)
    fmt

let warnings t = List.rev t.warnings
let saves t = t.saves
let restores t = t.restores
let fallbacks t = t.fallbacks
let dir t = t.dir
let fingerprint t = t.fingerprint

(* --- envelope --- *)

let seal ~key payload =
  let w = Codec.writer () in
  Codec.string w magic;
  Codec.int w version;
  Codec.string w key;
  Codec.string w payload;
  let body = Codec.contents w in
  let crc = Codec.crc32_string body in
  let w2 = Codec.writer () in
  Codec.i64 w2 (Int64.of_int32 crc);
  body ^ Codec.contents w2

let unseal ~key blob =
  let n = String.length blob in
  if n < 8 then raise (Codec.Malformed "envelope shorter than its checksum");
  let body = String.sub blob 0 (n - 8) in
  let stored_crc = Int64.to_int32 (String.get_int64_le blob (n - 8)) in
  let actual_crc = Codec.crc32_string body in
  if stored_crc <> actual_crc then
    raise
      (Codec.Malformed
         (Printf.sprintf "checksum mismatch: stored %08lx, computed %08lx"
            stored_crc actual_crc));
  let r = Codec.reader body in
  let m = Codec.read_string r in
  if m <> magic then raise (Codec.Malformed "bad magic");
  let v = Codec.read_int r in
  if v <> version then
    raise (Codec.Malformed (Printf.sprintf "unsupported format version %d" v));
  let k = Codec.read_string r in
  if k <> key then
    raise
      (Codec.Malformed (Printf.sprintf "key mismatch: file is for %S" k));
  let payload = Codec.read_string r in
  Codec.expect_end r;
  payload

(* --- filesystem helpers (Sys/Stdlib only; no Unix dependency) --- *)

(* Keys may contain characters unfit for filenames (shard separators,
   interval prefixes); encode anything outside a safe set as %XX. *)
let encode_key key =
  let b = Buffer.create (String.length key) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' ->
          Buffer.add_char b c
      | _ -> Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c)))
    key;
  Buffer.contents b

let path t key suffix = Filename.concat t.dir (encode_key key ^ suffix)

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Quarantine a bad file under a unique name so it never gets retried but
   remains available for post-mortem. *)
let quarantine _t file =
  let rec pick n =
    let candidate = Printf.sprintf "%s.corrupt-%d" file n in
    if Sys.file_exists candidate then pick (n + 1) else candidate
  in
  let dest = pick 0 in
  (try Sys.rename file dest
   with Sys_error _ -> ( try Sys.remove file with Sys_error _ -> ()));
  Filename.basename dest

(* --- store lifecycle --- *)

let manifest_key = "__manifest__"

let list_snapshots dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         Filename.check_suffix f ".ck" || Filename.check_suffix f ".prev.ck")

let write_manifest t =
  Io.retry (fun () ->
      Io.write_file_atomic ~dir:t.dir
        ~file:(Filename.concat t.dir "MANIFEST")
        (seal ~key:manifest_key t.fingerprint))

let open_ ~dir ~fingerprint () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Checkpoint.open_: %s is not a directory" dir);
  let t =
    {
      dir;
      fingerprint;
      mutex = Mutex.create ();
      warnings = [];
      saves = 0;
      restores = 0;
      fallbacks = 0;
    }
  in
  let manifest = Filename.concat dir "MANIFEST" in
  (if Sys.file_exists manifest then
     match unseal ~key:manifest_key (read_file manifest) with
     | stored when stored = fingerprint -> ()
     | stored ->
         (* A different campaign's snapshots: quarantine everything rather
            than resume from state that silently mismatches the request. *)
         List.iter
           (fun f -> ignore (quarantine t (Filename.concat dir f)))
           (list_snapshots dir);
         ignore (quarantine t manifest);
         warn t
           "checkpoint dir %s was written by a different campaign \
            (fingerprint %s, expected %s); quarantined its snapshots and \
            starting fresh"
           dir
           (String.sub stored 0 (min 12 (String.length stored)))
           (String.sub fingerprint 0 (min 12 (String.length fingerprint)))
     | exception Codec.Malformed reason ->
         List.iter
           (fun f -> ignore (quarantine t (Filename.concat dir f)))
           (list_snapshots dir);
         ignore (quarantine t manifest);
         warn t
           "checkpoint manifest in %s is corrupt (%s); quarantined the \
            directory's snapshots and starting fresh"
           dir reason);
  write_manifest t;
  t

(* --- save / load --- *)

(* Every write goes through the injectable shim under [Io.retry]: a
   transient disk fault is retried after a short wait; a torn write that
   "succeeds" lands a file the CRC check quarantines. *)
let save t ~key payload =
  let blob = seal ~key payload in
  let current = path t key ".ck" in
  let prev = path t key ".prev.ck" in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Io.retry (fun () ->
          (* Rotation is idempotent across retries: once the current
             snapshot has moved aside, a re-run skips straight to the
             write. *)
          if Sys.file_exists current then Io.rename current prev;
          Io.write_file_atomic ~dir:t.dir ~file:current blob);
      t.saves <- t.saves + 1)

(* Caller holds [t.mutex] (the OCaml runtime Mutex is not recursive), so
   counters and warnings are mutated directly here. *)
let load_file_unlocked t ~key ~decode file =
  if not (Sys.file_exists file) then None
  else
    match decode (unseal ~key (read_file file)) with
    | value -> Some value
    | exception Codec.Malformed reason ->
        let where = quarantine t file in
        t.fallbacks <- t.fallbacks + 1;
        t.warnings <-
          Printf.sprintf
            "checkpoint %s for %S failed validation (%s); quarantined as %s"
            (Filename.basename file) key reason where
          :: t.warnings;
        None

let load_decoded t ~key decode =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let result =
        match load_file_unlocked t ~key ~decode (path t key ".ck") with
        | Some value -> Some value
        | None -> (
            match
              load_file_unlocked t ~key ~decode (path t key ".prev.ck")
            with
            | Some value ->
                t.warnings <-
                  Printf.sprintf "recovered %S from the previous snapshot" key
                  :: t.warnings;
                Some value
            | None -> None)
      in
      (match result with
      | Some _ -> t.restores <- t.restores + 1
      | None -> ());
      result)

let load t ~key = load_decoded t ~key Fun.id

(* Durable on-disk checkpoint store (see checkpoint.mli for the protocol).

   Layout of a store directory:

     MANIFEST             version-1 envelope, payload = fingerprint string
     <key>.ck             one slot for [key]
     <key>.prev.ck        the other slot
     <slot>.corrupt-N     quarantined slots that failed validation

   A slot is rewritten in place ({!Io.overwrite}), never opened truncating
   or renamed over: either frees all its disk blocks, and that can wait on
   the device.  The envelope (magic | version | key | sequence | payload |
   CRC-32) is self-delimiting, so a torn slot is detected, and stale bytes
   past its parsed end (left by writers that did not set the length) are
   ignored.  Version 1 has no sequence field and reads as sequence 0. *)

let magic = "BCKP"

type t = {
  dir : string;
  fingerprint : string;
  mutex : Mutex.t;
  newest : (string, int * string) Hashtbl.t;
      (* key -> sequence and slot suffix of its newest valid snapshot *)
  mutable warnings : string list; (* newest first *)
  mutable saves : int;
  mutable restores : int;
  mutable fallbacks : int;
}

(* Slot suffixes; a sequence tie goes to the first. *)
let slots = [ ".ck"; ".prev.ck" ]

let warnings t = List.rev t.warnings
let saves t = t.saves
let restores t = t.restores
let fallbacks t = t.fallbacks

(* --- envelope --- *)

(* Version 2 with a sequence number, version 1 without. *)
let seal ~key ?seq payload =
  let w = Codec.writer () in
  Codec.string w magic;
  Codec.int w (if seq = None then 1 else 2);
  Codec.string w key;
  Option.iter (Codec.int w) seq;
  Codec.string w payload;
  let body = Codec.contents w in
  let w2 = Codec.writer () in
  Codec.i64 w2 (Int64.of_int32 (Codec.crc32_string body));
  body ^ Codec.contents w2

(* [(sequence, payload)]; the reader bounds-checks every length before the
   CRC is known, and nothing parsed is trusted until it passes. *)
let unseal ~key blob =
  let bad fmt = Printf.ksprintf (fun s -> raise (Codec.Malformed s)) fmt in
  let r = Codec.reader blob in
  if Codec.read_string r <> magic then bad "bad magic";
  let v = Codec.read_int r in
  if v <> 1 && v <> 2 then bad "unsupported format version %d" v;
  let k = Codec.read_string r in
  let seq = if v = 2 then Codec.read_int r else 0 in
  let payload = Codec.read_string r in
  let actual_crc = Codec.crc32 blob ~pos:0 ~len:(Codec.pos r) in
  let stored_crc = Int64.to_int32 (Codec.read_i64 r) in
  if stored_crc <> actual_crc then
    bad "checksum mismatch: stored %08lx, computed %08lx" stored_crc actual_crc;
  if k <> key then bad "key mismatch: file is for %S" k;
  (seq, payload)

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

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* Quarantine a bad file under a unique name so it never gets retried but
   remains available for post-mortem. *)
let quarantine file =
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

let open_ ~dir ~fingerprint () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Checkpoint.open_: %s is not a directory" dir);
  let t =
    { dir; fingerprint; mutex = Mutex.create (); newest = Hashtbl.create 16;
      warnings = []; saves = 0; restores = 0; fallbacks = 0 }
  in
  let manifest = Filename.concat dir "MANIFEST" in
  let short s = String.sub s 0 (min 12 (String.length s)) in
  let stale =
    if not (Sys.file_exists manifest) then None
    else
      match snd (unseal ~key:manifest_key (read_file manifest)) with
      | stored when stored = fingerprint -> None
      | stored ->
          Some
            (Printf.sprintf
               "was written by a different campaign (fingerprint %s, \
                expected %s)"
               (short stored) (short fingerprint))
      | exception Codec.Malformed reason ->
          Some (Printf.sprintf "has a corrupt manifest (%s)" reason)
  in
  (* Another campaign's snapshots, or unknown ones: quarantine everything
     rather than resume from state that silently mismatches the request. *)
  Option.iter
    (fun why ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".ck" then
            ignore (quarantine (Filename.concat dir f)))
        (Sys.readdir dir);
      ignore (quarantine manifest);
      t.warnings <-
        [ Printf.sprintf
            "checkpoint dir %s %s; quarantined its snapshots and starting \
             fresh"
            dir why ])
    stale;
  if not (Sys.file_exists manifest) then
    Io.retry (fun () ->
        Io.write_file_atomic ~dir ~file:manifest
          (seal ~key:manifest_key fingerprint));
  t

(* --- save / load --- *)

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* [None] for a missing slot file, else the slot's validated envelope. *)
let read_slot t ~key suffix =
  let file = path t key suffix in
  if not (Sys.file_exists file) then None
  else
    match unseal ~key (read_file file) with
    | v -> Some (suffix, Ok v)
    | exception Codec.Malformed reason -> Some (suffix, Error reason)

(* Every write goes through the injectable shim under [Io.retry]: a
   transient disk fault is retried after a short wait; a torn write that
   "succeeds" lands a slot the CRC check quarantines.  The slot is chosen
   once, so a retry rewrites the same slot. *)
let save t ~key payload =
  locked t @@ fun () ->
  let seq, newest =
    match Hashtbl.find_opt t.newest key with
    | Some s -> s
    | None ->
        List.fold_left
          (fun ((best, _) as acc) suffix ->
            match read_slot t ~key suffix with
            | Some (_, Ok (seq, _)) when seq > best -> (seq, suffix)
            | _ -> acc)
          (-1, ".prev.ck") slots
  in
  let seq = seq + 1 and slot = if newest = ".ck" then ".prev.ck" else ".ck" in
  Io.retry (fun () -> Io.overwrite (path t key slot) (seal ~key ~seq payload));
  Hashtbl.replace t.newest key (seq, slot);
  t.saves <- t.saves + 1

(* Slots newest first.  One that fails its CRC has no trustworthy
   sequence number and ranks first: a torn write is always the newest.
   Each slot that fails its CRC or [decode] is quarantined, counted and
   warned about once; the next slot serves the load. *)
let load_decoded t ~key decode =
  locked t @@ fun () ->
  let rank = function _, Ok (seq, _) -> seq | _, Error _ -> max_int in
  let candidates =
    List.filter_map (read_slot t ~key) slots
    |> List.stable_sort (fun a b -> compare (rank b) (rank a))
  in
  let rec first rejected = function
    | [] -> (rejected, None)
    | (suffix, Error reason) :: rest -> first ((suffix, reason) :: rejected) rest
    | (suffix, Ok (seq, payload)) :: rest -> (
        match decode payload with
        | value ->
            Hashtbl.replace t.newest key (seq, suffix);
            (rejected, Some value)
        | exception Codec.Malformed reason ->
            first ((suffix, reason) :: rejected) rest)
  in
  let rejected, result = first [] candidates in
  if result = None then Hashtbl.remove t.newest key
  else t.restores <- t.restores + 1;
  List.iter
    (fun (suffix, reason) ->
      let file = path t key suffix in
      t.fallbacks <- t.fallbacks + 1;
      t.warnings <-
        Printf.sprintf
          "checkpoint %s for %S failed validation (%s); quarantined as %s%s"
          (Filename.basename file) key reason (quarantine file)
          (if result = None then ""
           else Printf.sprintf "; recovered %S from the previous snapshot" key)
        :: t.warnings)
    (List.rev rejected);
  result

let load t ~key = load_decoded t ~key Fun.id

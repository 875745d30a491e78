(* Fixed-width little-endian binary codec.

   Checkpoints must restore *exactly* the state they captured, so every
   number is stored in full width: ints and floats travel as 8-byte
   little-endian words (floats via [Int64.bits_of_float]), never as text.
   The format is deliberately boring — no varints, no compression — because
   the reader must be able to reject a torn or bit-flipped file before any
   field is trusted, and the CRC-32 over the raw bytes does exactly that. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* --- CRC-32 (IEEE 802.3, polynomial 0xEDB88320) --- *)

(* The table and running remainder live in native ints (always ≥ 32 value
   bits here) so the per-byte loop is allocation-free — with boxed [Int32]
   arithmetic, checksumming a multi-megabyte shard snapshot allocated
   several words per input byte and dominated the save cost. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0l) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.crc32";
  let table = Lazy.force crc_table in
  let c = ref (Int32.to_int crc land 0xFFFFFFFF lxor 0xFFFFFFFF) in
  for k = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s k)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32_string s = crc32 s ~pos:0 ~len:(String.length s)

(* --- writer --- *)

type writer = Buffer.t

let writer () = Buffer.create 256
let contents w = Buffer.contents w
let u8 w v = Buffer.add_uint8 w (v land 0xFF)
let i64 w v = Buffer.add_int64_le w v
let int w v = i64 w (Int64.of_int v)
let float w v = i64 w (Int64.bits_of_float v)
let bool w v = u8 w (if v then 1 else 0)

let string w s =
  int w (String.length s);
  Buffer.add_string w s

let option w f = function
  | None -> bool w false
  | Some v ->
      bool w true;
      f w v

let list w f xs =
  int w (List.length xs);
  List.iter (f w) xs

let array w f xs =
  int w (Array.length xs);
  Array.iter (f w) xs

let float_array w xs = array w float xs
let int_array w xs = array w int xs

(* --- reader --- *)

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let need r n what =
  if n > String.length r.src - r.pos then
    malformed "truncated input reading %s at byte %d" what r.pos

let read_u8 r =
  need r 1 "byte";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let read_i64 r =
  need r 8 "int64";
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let read_int r = Int64.to_int (read_i64 r)
let read_float r = Int64.float_of_bits (read_i64 r)

let read_bool r =
  match read_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> malformed "bad boolean byte %d" v

let read_string r =
  let n = read_int r in
  if n < 0 then malformed "negative string length %d" n;
  need r n "string body";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let read_option r f = if read_bool r then Some (f r) else None

(* Every element takes at least [width] bytes, so a count the remaining
   input cannot hold is a lie: reject it before anything is allocated. *)
let read_count r what ~width =
  let n = read_int r in
  if n < 0 || n > (String.length r.src - r.pos) / width then
    malformed "implausible %s count %d at byte %d" what n r.pos;
  n

let read_list r f =
  let n = read_count r "list" ~width:1 in
  List.init n (fun _ -> f r)

let read_words r read =
  let n = read_count r "array" ~width:8 in
  Array.init n (fun _ -> read r)

let read_float_array r = read_words r read_float
let read_int_array r = read_words r read_int

let valid what f x =
  try f x with Invalid_argument e -> malformed "invalid %s: %s" what e

let pos r = r.pos

let expect_end r =
  if r.pos <> String.length r.src then
    malformed "%d trailing bytes" (String.length r.src - r.pos)

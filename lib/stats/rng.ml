type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }
let copy t = { state = t.state }

let state t = Printf.sprintf "%016Lx" t.state

let of_state s =
  if String.length s <> 16 then
    invalid_arg "Rng.of_state: expected 16 hex characters";
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
      | _ -> invalid_arg "Rng.of_state: malformed hex state")
    s;
  match Int64.of_string_opt ("0x" ^ s) with
  | Some v -> { state = v }
  | None -> invalid_arg "Rng.of_state: malformed hex state"

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = int64 t in
  { state = mix s }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: n must be non-negative";
  Array.init n (fun _ -> split t)

(* 53 high bits scaled to [0,1). *)
let unit_float bits =
  Int64.to_float (Int64.shift_right_logical bits 11)
  *. (1.0 /. 9007199254740992.0)

let float t = unit_float (int64 t)

(* Each key word goes through one SplitMix64 step: xor it in, add the
   golden gamma, mix. *)
let keyed_float seed key =
  let step h k =
    mix (Int64.add (Int64.logxor h (Int64.of_int k)) golden_gamma)
  in
  unit_float (List.fold_left step (mix (Int64.of_int seed)) key)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible for bound
     much smaller than 2^62, which holds everywhere in this code base. *)
  let v = Int64.to_int (int64 t) land max_int in
  v mod bound

let bool t = Int64.logand (int64 t) 1L = 1L
let range_float t lo hi = lo +. ((hi -. lo) *. float t)

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k arr =
  if k > Array.length arr then
    invalid_arg "Rng.sample_without_replacement: k too large";
  let copy = Array.copy arr in
  shuffle t copy;
  Array.sub copy 0 k

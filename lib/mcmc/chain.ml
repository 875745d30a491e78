(* Flat row-major sample storage.

   Draws live in one [len × dim] float array instead of an array of boxed
   rows: a chain of 1000 draws over 500 ASs is a single unboxed block, not
   1001 heap objects.  Samplers blit into a pre-sized {!Builder} instead of
   [Array.copy]-ing a fresh row per kept draw, which is where the bulk of
   the per-draw allocation of the old representation went. *)

type t = {
  dim : int;
  len : int;
  data : float array; (* row-major: draw k occupies [k*dim, (k+1)*dim) *)
}

let of_flat ~dim data =
  if dim <= 0 then invalid_arg "Chain.of_flat: dim must be positive";
  let n = Array.length data in
  if n = 0 then invalid_arg "Chain.of_flat: empty";
  if n mod dim <> 0 then
    invalid_arg
      (Printf.sprintf
         "Chain.of_flat: %d values do not divide into rows of dim %d" n dim);
  { dim; len = n / dim; data }

let of_samples samples =
  if Array.length samples = 0 then invalid_arg "Chain.of_samples: empty";
  let dim = Array.length samples.(0) in
  Array.iteri
    (fun k row ->
      if Array.length row <> dim then
        invalid_arg
          (Printf.sprintf
             "Chain.of_samples: ragged matrix (row %d has %d columns, row 0 \
              has %d)"
             k (Array.length row) dim))
    samples;
  if dim = 0 then invalid_arg "Chain.of_samples: zero-dimensional draws";
  let len = Array.length samples in
  let data = Array.make (len * dim) 0.0 in
  Array.iteri (fun k row -> Array.blit row 0 data (k * dim) dim) samples;
  { dim; len; data }

let length t = t.len
let dim t = t.dim

let get t k =
  if k < 0 || k >= t.len then
    invalid_arg
      (Printf.sprintf "Chain.get: draw %d out of bounds (length %d)" k t.len);
  Array.sub t.data (k * t.dim) t.dim

let value t k i =
  if k < 0 || k >= t.len || i < 0 || i >= t.dim then
    invalid_arg
      (Printf.sprintf
         "Chain.value: (%d, %d) out of bounds (length %d, dim %d)" k i t.len
         t.dim);
  Array.unsafe_get t.data ((k * t.dim) + i)

let marginal_into t i ~len dst =
  if i < 0 || i >= t.dim || len < 0 || len > t.len || len > Array.length dst
  then
    invalid_arg
      (Printf.sprintf
         "Chain.marginal_into: coordinate %d, %d draws into %d slots out of \
          bounds (length %d, dim %d)"
         i len (Array.length dst) t.len t.dim);
  for k = 0 to len - 1 do
    Array.unsafe_set dst k (Array.unsafe_get t.data ((k * t.dim) + i))
  done

let marginal t i =
  if i < 0 || i >= t.dim then
    invalid_arg
      (Printf.sprintf "Chain.marginal: coordinate %d out of bounds (dim %d)" i
         t.dim);
  let column = Array.make t.len 0.0 in
  marginal_into t i ~len:t.len column;
  column

let map_draws t f = Array.init t.len (fun k -> f (get t k))

let for_all_values f t =
  let ok = ref true in
  let n = Array.length t.data in
  let i = ref 0 in
  while !ok && !i < n do
    if not (f (Array.unsafe_get t.data !i)) then ok := false;
    incr i
  done;
  !ok

let thin t k =
  if k <= 0 then invalid_arg "Chain.thin: k must be positive";
  let n = (t.len + k - 1) / k in
  let data = Array.make (n * t.dim) 0.0 in
  for r = 0 to n - 1 do
    Array.blit t.data (r * k * t.dim) data (r * t.dim) t.dim
  done;
  { dim = t.dim; len = n; data }

let prefix t n =
  if n <= 0 || n > t.len then
    invalid_arg
      (Printf.sprintf "Chain.prefix: %d out of bounds (length %d)" n t.len);
  if n = t.len then t
  else { dim = t.dim; len = n; data = Array.sub t.data 0 (n * t.dim) }

let equal a b =
  a.dim = b.dim && a.len = b.len
  && begin
       let n = Array.length a.data in
       let same = ref true in
       let i = ref 0 in
       while !same && !i < n do
         if
           Int64.bits_of_float (Array.unsafe_get a.data !i)
           <> Int64.bits_of_float (Array.unsafe_get b.data !i)
         then same := false;
         incr i
       done;
       !same
     end

let concat chains =
  match chains with
  | [] -> invalid_arg "Chain.concat: empty list"
  | first :: rest ->
      let d = first.dim in
      List.iteri
        (fun k c ->
          if c.dim <> d then
            invalid_arg
              (Printf.sprintf
                 "Chain.concat: dimension mismatch (chain %d has dim %d, \
                  chain 0 has %d)"
                 (k + 1) c.dim d))
        rest;
      let total = List.fold_left (fun acc c -> acc + c.len) 0 chains in
      let data = Array.make (total * d) 0.0 in
      let off = ref 0 in
      List.iter
        (fun c ->
          Array.blit c.data 0 data !off (c.len * d);
          off := !off + (c.len * d))
        chains;
      { dim = d; len = total; data }

let append a b = concat [ a; b ]

module Builder = struct
  type t = {
    b_dim : int;
    capacity : int;
    buf : float array; (* capacity × b_dim, rows [0, count) are live *)
    mutable count : int;
    mutable sealed : bool;
  }

  let create ~dim ~capacity =
    if dim <= 0 then invalid_arg "Chain.Builder.create: dim must be positive";
    if capacity <= 0 then
      invalid_arg "Chain.Builder.create: capacity must be positive";
    { b_dim = dim; capacity; buf = Array.make (capacity * dim) 0.0;
      count = 0; sealed = false }

  let count b = b.count
  let dim b = b.b_dim

  let check_open b who =
    if b.sealed then
      invalid_arg (who ^ ": builder already converted to a chain")

  let push b row =
    check_open b "Chain.Builder.push";
    if Array.length row <> b.b_dim then
      invalid_arg "Chain.Builder.push: row has the wrong dimension";
    if b.count >= b.capacity then invalid_arg "Chain.Builder.push: full";
    Array.blit row 0 b.buf (b.count * b.b_dim) b.b_dim;
    b.count <- b.count + 1

  let flat_prefix b = Array.sub b.buf 0 (b.count * b.b_dim)

  let load_flat b flat =
    check_open b "Chain.Builder.load_flat";
    let n = Array.length flat in
    if n mod b.b_dim <> 0 then
      invalid_arg
        "Chain.Builder.load_flat: flat draws do not divide into rows";
    let rows = n / b.b_dim in
    if rows > b.capacity then
      invalid_arg "Chain.Builder.load_flat: more draws than capacity";
    Array.blit flat 0 b.buf 0 n;
    b.count <- rows

  let to_chain b =
    check_open b "Chain.Builder.to_chain";
    if b.count = 0 then invalid_arg "Chain.Builder.to_chain: empty";
    b.sealed <- true;
    if b.count = b.capacity then
      (* The buffer is full: hand it over without copying.  [sealed] makes
         sure the builder can never mutate it afterwards. *)
      { dim = b.b_dim; len = b.count; data = b.buf }
    else { dim = b.b_dim; len = b.count; data = flat_prefix b }
end

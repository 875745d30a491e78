(* Structure of arrays.  The heap order lives in three unboxed arrays:
   times, insertion sequence numbers and the index of the slot holding each
   entry's payload.  Payloads sit still in their slot from push to pop, so
   a sift moves only ints and floats and never runs the write barrier; the
   one pointer write per entry is the payload's store into its slot.
   Popped slots go on a free stack and are reused first, so the payload
   array never holds more slots than the peak number of live entries. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;       (* heap position -> payload slot *)
  mutable payloads : 'a array;     (* payload slot -> payload *)
  mutable free : int array;        (* stack of popped slots *)
  mutable n_free : int;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; free = [||];
    n_free = 0; len = 0; next_seq = 0 }

let is_empty t = t.len = 0
let size t = t.len

(* Slots handed out so far: live entries plus the free stack. *)
let capacity t = t.len + t.n_free

(* Only called with every slot live ([len] = array length, free stack
   empty).  [filler] initialises the fresh payload slots; [Array.make]
   needs one. *)
let grow t filler =
  let cap = Stdlib.max 16 (2 * Array.length t.times) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.payloads <- extend t.payloads filler;
  t.free <- Array.make cap 0

let push t ~time payload =
  if t.len = Array.length t.times then grow t payload;
  let slot =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else t.len
  in
  t.payloads.(slot) <- payload;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift the hole up from the new leaf.  The newcomer carries the largest
     sequence number, so it passes a parent only on a strictly earlier
     time. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && time < times.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    times.(!i) <- times.(parent);
    seqs.(!i) <- seqs.(parent);
    slots.(!i) <- slots.(parent);
    i := parent
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let remove_min t =
  if t.len = 0 then invalid_arg "Heap.remove_min: empty heap";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = slots.(0) in
  t.free.(t.n_free) <- top;
  t.n_free <- t.n_free + 1;
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root's hole. *)
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  t.payloads.(top)

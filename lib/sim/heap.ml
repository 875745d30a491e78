(* Structure of arrays.  The heap order lives in three unboxed arrays:
   times, insertion sequence numbers and the index of the slot holding each
   entry's payload.  Payloads sit still in their slot from push to pop, so
   a sift moves only ints and floats and never runs the write barrier; the
   one pointer write per entry is the payload's store into its slot.
   Popped slots go on a free stack and are reused first, so the payload
   array never holds more slots than the peak number of live entries.  The
   free stack lives in the unused tail of [slots]: positions [len] to
   [used - 1], its top at [len]. *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
      (* heap position -> payload slot, then the free stack *)
  mutable payloads : 'a array;     (* payload slot -> payload *)
  mutable used : int;              (* slots handed out so far *)
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; used = 0;
    len = 0; next_seq = 0 }

let is_empty t = t.len = 0
let size t = t.len
let capacity t = t.used

(* Only called with every slot live ([len] = [used] = array length, free
   stack empty).  [filler] initialises the fresh payload slots;
   [Array.make] needs one. *)
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
  t.payloads <- extend t.payloads filler

let push t ~time payload =
  if t.len = Array.length t.times then grow t payload;
  let slot =
    if t.len < t.used then t.slots.(t.len)
    else begin
      t.used <- t.used + 1;
      t.len
    end
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
  (* The vacated last position becomes the free stack's new top. *)
  slots.(n) <- top;
  t.payloads.(top)

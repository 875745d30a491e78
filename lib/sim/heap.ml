(* Structure of arrays: times unboxed in a float array, insertion sequence
   numbers and payloads alongside.  Sifting moves a hole instead of
   swapping entries, so a push or a removal allocates nothing (beyond the
   occasional doubling of the arrays). *)
type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let create () =
  { times = [||]; seqs = [||]; payloads = [||]; len = 0; next_seq = 0 }

let is_empty t = t.len = 0
let size t = t.len

(* [filler] initialises the fresh payload slots; [Array.make] needs one. *)
let grow t filler =
  let cap = Stdlib.max 16 (2 * Array.length t.times) in
  let times = Array.make cap 0.0
  and seqs = Array.make cap 0
  and payloads = Array.make cap filler in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time payload =
  if t.len = Array.length t.times then grow t payload;
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
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
    payloads.(!i) <- payloads.(parent);
    i := parent
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  payloads.(!i) <- payload

let min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  t.times.(0)

let remove_min t =
  if t.len = 0 then invalid_arg "Heap.remove_min: empty heap";
  let times = t.times and seqs = t.seqs and payloads = t.payloads in
  let top = payloads.(0) in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root's hole. *)
    let time = times.(n) and seq = seqs.(n) and payload = payloads.(n) in
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
          payloads.(!i) <- payloads.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    payloads.(!i) <- payload
  end;
  top

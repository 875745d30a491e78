(* The clock sits in an all-float record, stored flat: advancing it once
   per event writes a float in place instead of boxing a fresh one. *)
type clock = { mutable time : float }

type 'a t = {
  heap : 'a Heap.t;
  clock : clock;
  mutable processed : int;
}

let create () =
  { heap = Heap.create (); clock = { time = 0.0 }; processed = 0 }

let now t = t.clock.time

let schedule t ~time payload =
  Heap.push t.heap ~time:(Float.max time t.clock.time) payload

let pending t = Heap.size t.heap
let processed t = t.processed
let max_pending t = Heap.capacity t.heap

(* The caller has checked the queue is non-empty. *)
let dispatch t ~handler =
  let time = Heap.min_time t.heap in
  let payload = Heap.remove_min t.heap in
  t.clock.time <- time;
  t.processed <- t.processed + 1;
  handler ~now:time payload

let step t ~handler =
  if Heap.is_empty t.heap then false
  else begin
    dispatch t ~handler;
    true
  end

let run t ~until ~handler =
  while (not (Heap.is_empty t.heap)) && not (Heap.min_time t.heap > until) do
    dispatch t ~handler
  done

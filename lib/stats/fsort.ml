(* [Float.compare x y < 0], spelled out so that it compiles to unboxed
   float compares: NaN sorts below every number and equal to itself. *)
let lt (x : float) y = x < y || (x <> x && y = y)

(* The standard library's [Array.sort] (a ternary heap sort, with Floyd's
   bottom-up sift on extraction) step for step, with [Float.compare]
   inlined as [lt] and its recursive helpers unrolled into loops.  Every
   element move is the one [Array.sort Float.compare] makes, so even
   values that compare equal but differ in bits (signed zeros, NaN
   payloads) end up in the same slots. *)

(* Index of the largest of node [i]'s (up to three) children in a heap of
   size [l], or -1 when [i] has none. *)
let maxson a l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if lt (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1)) then
        i31 + 1
      else i31
    in
    if lt (Array.unsafe_get a x) (Array.unsafe_get a (i31 + 2)) then i31 + 2
    else x
  end
  else if
    i31 + 1 < l
    && lt (Array.unsafe_get a i31) (Array.unsafe_get a (i31 + 1))
  then i31 + 1
  else if i31 < l then i31
  else -1

let sort a =
  let l = Array.length a in
  (* Heapify: sift each inner node's value down. *)
  for start = ((l + 1) / 3) - 1 downto 0 do
    let e = Array.unsafe_get a start in
    let i = ref start and sifting = ref true in
    while !sifting do
      let j = maxson a l !i in
      if j >= 0 && lt e (Array.unsafe_get a j) then begin
        Array.unsafe_set a !i (Array.unsafe_get a j);
        i := j
      end
      else begin
        Array.unsafe_set a !i e;
        sifting := false
      end
    done
  done;
  (* Extract: move the root to the end, sink the hole to a leaf along the
     larger children, then sift the displaced value back up from there. *)
  for last = l - 1 downto 2 do
    let e = Array.unsafe_get a last in
    Array.unsafe_set a last (Array.unsafe_get a 0);
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let j = maxson a last !i in
      if j < 0 then sinking := false
      else begin
        Array.unsafe_set a !i (Array.unsafe_get a j);
        i := j
      end
    done;
    let rising = ref true in
    while !rising do
      let father = (!i - 1) / 3 in
      if lt (Array.unsafe_get a father) e then begin
        Array.unsafe_set a !i (Array.unsafe_get a father);
        if father > 0 then i := father
        else begin
          Array.unsafe_set a 0 e;
          rising := false
        end
      end
      else begin
        Array.unsafe_set a !i e;
        rising := false
      end
    done
  done;
  if l > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
  end

let sorted_copy xs =
  let s = Array.copy xs in
  sort s;
  s

let merge runs dst =
  let k = Array.length runs in
  let heads = Array.make k 0 in
  let total = Array.fold_left (fun n r -> n + Array.length r) 0 runs in
  if Array.length dst < total then
    invalid_arg "Fsort.merge: destination shorter than the runs";
  for out = 0 to total - 1 do
    (* The smallest head, earliest run first among equals. *)
    let best = ref (-1) in
    for r = 0 to k - 1 do
      let h = Array.unsafe_get heads r in
      let run = Array.unsafe_get runs r in
      if
        h < Array.length run
        && (!best < 0
           || lt (Array.unsafe_get run h)
                (Array.unsafe_get (Array.unsafe_get runs !best)
                   (Array.unsafe_get heads !best)))
      then best := r
    done;
    let r = !best in
    let h = Array.unsafe_get heads r in
    Array.unsafe_set dst out (Array.unsafe_get (Array.unsafe_get runs r) h);
    Array.unsafe_set heads r (h + 1)
  done

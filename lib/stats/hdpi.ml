type t = { lo : float; hi : float }

let width t = t.hi -. t.lo

let check who ~mass n =
  if n = 0 then invalid_arg (who ^ ": empty sample array");
  if mass <= 0.0 || mass > 1.0 then invalid_arg (who ^ ": mass outside (0,1]")

(* The shortest window of [ceil (mass * n)] consecutive order statistics;
   the first one wins a tie. *)
let shortest ~mass sorted =
  let n = Array.length sorted in
  let window = Stdlib.max 1 (int_of_float (Float.ceil (mass *. float_of_int n))) in
  let window = Stdlib.min window n in
  let best = ref 0 in
  let best_width = ref infinity in
  for i = 0 to n - window do
    let w = sorted.(i + window - 1) -. sorted.(i) in
    if w < !best_width then begin
      best_width := w;
      best := i
    end
  done;
  { lo = sorted.(!best); hi = sorted.(!best + window - 1) }

let compute ?(mass = 0.95) samples =
  let n = Array.length samples in
  check "Hdpi.compute" ~mass n;
  shortest ~mass (Fsort.sorted_copy samples)

let of_sorted ?(mass = 0.95) sorted =
  check "Hdpi.of_sorted" ~mass (Array.length sorted);
  shortest ~mass sorted

let contains t x = x >= t.lo && x <= t.hi

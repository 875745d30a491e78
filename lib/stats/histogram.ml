type t = { lo : float; hi : float; counts : int array; total : int }

let create ~lo ~hi ~bins =
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  if hi <= lo then invalid_arg "Histogram.create: hi must exceed lo";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bin_width t = (t.hi -. t.lo) /. float_of_int (Array.length t.counts)

let bin_of t x =
  let bins = Array.length t.counts in
  let i = int_of_float (Float.floor ((x -. t.lo) /. bin_width t)) in
  if i < 0 then 0 else if i >= bins then bins - 1 else i

let of_array ~lo ~hi ~bins xs =
  let t = create ~lo ~hi ~bins in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = bin_of t x in
      counts.(i) <- counts.(i) + 1)
    xs;
  { t with counts; total = Array.length xs }

let densities t =
  let w = bin_width t in
  let n = Stdlib.max t.total 1 in
  Array.map (fun c -> float_of_int c /. (float_of_int n *. w)) t.counts

let sparkline t =
  let ramp = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                "\xe2\x96\x87"; "\xe2\x96\x88" |] in
  let peak = Array.fold_left Stdlib.max 1 t.counts in
  let buf = Buffer.create (Array.length t.counts * 3) in
  Array.iter
    (fun c ->
      let level = c * (Array.length ramp - 1) / peak in
      Buffer.add_string buf ramp.(level))
    t.counts;
  Buffer.contents buf

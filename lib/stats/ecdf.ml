type t = float array (* sorted *)

let of_array xs =
  if Array.length xs = 0 then invalid_arg "Ecdf.of_array: empty array";
  Fsort.sorted_copy xs

let size t = Array.length t

let eval t x =
  (* Binary search for the rightmost index with t.(i) <= x. *)
  let n = Array.length t in
  if x < t.(0) then 0.0
  else if x >= t.(n - 1) then 1.0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.(mid) <= x then lo := mid else hi := mid
    done;
    float_of_int (!lo + 1) /. float_of_int n
  end

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Ecdf.quantile: q outside [0,1]";
  let n = Array.length t in
  let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  t.(Stdlib.max 0 (Stdlib.min (n - 1) i))

let support t = (t.(0), t.(Array.length t - 1))

let series ?(points = 20) t =
  let lo, hi = support t in
  if points < 2 || hi <= lo then [ (lo, eval t lo); (hi, 1.0) ]
  else begin
    let step = (hi -. lo) /. float_of_int (points - 1) in
    List.init points (fun i ->
        let x = lo +. (float_of_int i *. step) in
        (x, eval t x))
  end

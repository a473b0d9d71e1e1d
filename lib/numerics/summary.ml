type t = { mutable count : int; mutable mean : float; mutable m2 : float }

let create () = { count = 0; mean = 0.; m2 = 0. }

let add t x =
  (* Welford's online update: numerically stable single pass. *)
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let mean t = if t.count = 0 then nan else t.mean

let variance t =
  if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let of_array a =
  let t = create () in
  Array.iter (add t) a;
  t

let mean_of a = mean (of_array a)
let quantile a q =
  if Array.length a = 0 then invalid_arg "Summary.quantile: empty array";
  if q < 0. || q > 1. then invalid_arg "Summary.quantile: q outside [0, 1]";
  let sorted = Array.copy a in
  (* Float.compare: monomorphic (no boxing) and a total order on NaN. *)
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    (* Linear interpolation between closest ranks (type-7 quantile). *)
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor h) in
    let hi = min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median a = quantile a 0.5

let median_int a =
  if Array.length a = 0 then invalid_arg "Summary.median_int: empty array";
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  sorted.(Array.length sorted / 2)

let prefix_sums a =
  let n = Array.length a in
  let out = Array.make (n + 1) 0. in
  let acc = Kahan.create () in
  for i = 0 to n - 1 do
    Kahan.add acc a.(i);
    out.(i + 1) <- Kahan.total acc
  done;
  out

let argmax a =
  if Array.length a = 0 then invalid_arg "Summary.argmax: empty array";
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) > a.(!best) then best := i
  done;
  !best

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

let prefix_sums a =
  let n = Array.length a in
  let out = Array.make (n + 1) 0. in
  let acc = Kahan.create () in
  for i = 0 to n - 1 do
    Kahan.add acc a.(i);
    out.(i + 1) <- Kahan.total acc
  done;
  out

(* Insertion sort, in place down each column: the columns are a handful
   of repetitions, and a loop over float arrays boxes nothing, where
   [Array.sort]'s comparison closure takes its floats boxed. *)
let[@histolint.hot] column_medians rows ~rows:r ~cols ~out =
  if r < 1 then invalid_arg "Summary.column_medians: no rows";
  if Array.length rows < r || Array.length out < cols then
    invalid_arg "Summary.column_medians: buffers too short";
  for j = 0 to cols - 1 do
    for i = 1 to r - 1 do
      let x = rows.(i).(j) in
      let p = ref i in
      while !p > 0 && Float.compare rows.(!p - 1).(j) x > 0 do
        rows.(!p).(j) <- rows.(!p - 1).(j);
        decr p
      done;
      rows.(!p).(j) <- x
    done;
    (* [quantile]'s interpolation at q = 0.5, down the sorted column. *)
    out.(j) <-
      (if r = 1 then rows.(0).(j)
       else
         let h = 0.5 *. float_of_int (r - 1) in
         let lo = int_of_float (floor h) in
         let hi = min (lo + 1) (r - 1) in
         let frac = h -. float_of_int lo in
         rows.(lo).(j) +. (frac *. (rows.(hi).(j) -. rows.(lo).(j))))
  done

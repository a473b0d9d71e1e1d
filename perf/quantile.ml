(* Order statistics for latency samples and for sets of benchmark runs.

   Latency samples are integer nanoseconds.  A request that failed or was
   never answered is recorded as [failed] (max_int): it misses every
   latency limit, so it sorts above every real latency and a percentile
   that lands on it reads as infinite. *)

let failed = max_int

let sorted_ints a n =
  let s = Array.sub a 0 n in
  Array.sort Int.compare s;
  s

(* Nearest-rank percentile of a sorted sample: the smallest value with at
   least a share [p] of the sample at or below it. *)
let rank_index ~m p =
  let r = int_of_float (Float.ceil (p *. float_of_int m)) in
  max 0 (min (m - 1) (r - 1))

let percentile sorted p =
  let m = Array.length sorted in
  if m = 0 then invalid_arg "Quantile.percentile: empty sample";
  sorted.(rank_index ~m p)

let to_float_ns v = if v = failed then Float.infinity else float_of_int v

let tail_candidates = [ 0.5; 0.9; 0.99; 0.999; 0.9999; 0.99999; 0.999999 ]

(* The highest percentile with at least ten samples beyond it: p99.9 needs
   10 000 samples, p99 needs 1 000.  [None] below 20 samples. *)
let tail sorted =
  let m = Array.length sorted in
  List.fold_left
    (fun acc p ->
      let beyond = m - 1 - rank_index ~m p in
      if m > 0 && beyond >= 10 then Some (p, sorted.(rank_index ~m p)) else acc)
    None tail_candidates

(* Python's [statistics.median]. *)
let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let m = Array.length s in
  if m = 0 then invalid_arg "Quantile.median: empty";
  if m mod 2 = 1 then s.(m / 2) else (s.((m / 2) - 1) +. s.(m / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (method "exclusive"), the rule
   the benchmark's spread is judged by: (q1, median, q3). *)
let quartiles xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Quantile.quartiles: empty";
  if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* A growable int vector: latency and lateness samples are appended on
   the load generator's hot loop. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v = sorted_ints v.a v.n
end

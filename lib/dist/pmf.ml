(* The array itself: a pmf costs its n floats and nothing else. *)
type t = float array

let tolerance = 1e-9

let[@histolint.hot] check_weights name p =
  for i = 0 to Array.length p - 1 do
    let x = Array.unsafe_get p i in
    if not (Float.is_finite x) || x < 0. then
      invalid_arg (name ^ ": weights must be finite and nonnegative")
  done

(* Both constructors own the array they are given (see pmf.mli): the
   built pmf is that array, validated and, for [of_weights], normalized
   in place — no copy. *)
let[@histolint.hot] create p =
  if Array.length p = 0 then invalid_arg "Pmf.create: empty domain";
  check_weights "Pmf.create" p;
  let total = Numkit.Kahan.sum_array p in
  if Float.abs (total -. 1.) > tolerance then
    invalid_arg
      (Printf.sprintf "Pmf.create: total mass %.12g is not 1" total);
  p

let[@histolint.hot] of_weights w =
  if Array.length w = 0 then invalid_arg "Pmf.of_weights: empty domain";
  check_weights "Pmf.of_weights" w;
  let total = Numkit.Kahan.sum_array w in
  if total <= 0. then invalid_arg "Pmf.of_weights: total weight is zero";
  for i = 0 to Array.length w - 1 do
    Array.unsafe_set w i (Array.unsafe_get w i /. total)
  done;
  w

(* The expansion of a piecewise-constant pmf.  Its mass is checked over
   the cells, O(K), as [create] checks it over the elements.  The cells
   of a partition cover [0, n), so one [Array.fill] per cell writes
   every entry of an uninitialized array once: the result costs its one
   array and a single pass over it. *)
let[@histolint.hot] of_pieces part levels =
  if Array.length levels <> Partition.cell_count part then
    invalid_arg "Pmf.of_pieces: one level per cell required";
  check_weights "Pmf.of_pieces" levels;
  let mass =
    (Numkit.Kahan.create () [@histolint.alloc_ok "one accumulator per pmf"])
  in
  for j = 0 to Array.length levels - 1 do
    let len = Interval.length (Partition.cell part j) in
    Numkit.Kahan.add mass (levels.(j) *. float_of_int len)
  done;
  let total = Numkit.Kahan.total mass in
  if Float.abs (total -. 1.) > tolerance then
    invalid_arg
      (Printf.sprintf "Pmf.of_pieces: total mass %.12g is not 1" total);
  let p =
    (Array.create_float (Partition.domain_size part)
     [@histolint.alloc_ok "the pmf's one array"])
  in
  for j = 0 to Array.length levels - 1 do
    let cell = Partition.cell part j in
    Array.fill p (Interval.lo cell) (Interval.length cell) levels.(j)
  done;
  p

let size t = Array.length t
let get t i = t.(i)
let to_array t = Array.copy t
let unsafe_array t = t

let mass_on t iv =
  let lo = Interval.lo iv and hi = Interval.hi iv in
  if lo < 0 || hi > size t then invalid_arg "Pmf.mass_on: interval outside domain";
  Numkit.Kahan.sum_sub t ~pos:lo ~len:(hi - lo)

let support t =
  let out = ref [] in
  for i = size t - 1 downto 0 do
    if t.(i) > 0. then out := i :: !out
  done;
  !out

let support_size t =
  Array.fold_left (fun acc x -> if x > 0. then acc + 1 else acc) 0 t

let cdf t = Numkit.Summary.prefix_sums t

let uniform n =
  if n <= 0 then invalid_arg "Pmf.uniform: n must be positive";
  Array.make n (1. /. float_of_int n)

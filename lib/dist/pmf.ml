type t = { p : float array }

let tolerance = 1e-9

let check_weights name p =
  Array.iter
    (fun x ->
      if not (Float.is_finite x) || x < 0. then
        invalid_arg (name ^ ": weights must be finite and nonnegative"))
    p

let create p =
  if Array.length p = 0 then invalid_arg "Pmf.create: empty domain";
  check_weights "Pmf.create" p;
  let total = Numkit.Kahan.sum_array p in
  if Float.abs (total -. 1.) > tolerance then
    invalid_arg
      (Printf.sprintf "Pmf.create: total mass %.12g is not 1" total);
  { p = Array.copy p }

let of_weights w =
  if Array.length w = 0 then invalid_arg "Pmf.of_weights: empty domain";
  check_weights "Pmf.of_weights" w;
  let total = Numkit.Kahan.sum_array w in
  if total <= 0. then invalid_arg "Pmf.of_weights: total weight is zero";
  { p = Array.map (fun x -> x /. total) w }

let size t = Array.length t.p
let get t i = t.p.(i)
let to_array t = Array.copy t.p
let unsafe_array t = t.p

let mass_on t iv =
  let lo = Interval.lo iv and hi = Interval.hi iv in
  if lo < 0 || hi > size t then invalid_arg "Pmf.mass_on: interval outside domain";
  Numkit.Kahan.sum_f (hi - lo) (fun j -> t.p.(lo + j))

let support t =
  let out = ref [] in
  for i = size t - 1 downto 0 do
    if t.p.(i) > 0. then out := i :: !out
  done;
  !out

let support_size t =
  Array.fold_left (fun acc x -> if x > 0. then acc + 1 else acc) 0 t.p

let cdf t = Numkit.Summary.prefix_sums t.p

let uniform n =
  if n <= 0 then invalid_arg "Pmf.uniform: n must be positive";
  { p = Array.make n (1. /. float_of_int n) }

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let next_power_of_two x =
  let rec go p = if p >= x then p else go (2 * p) in
  go 1

let transform values =
  let n0 = Array.length values in
  if n0 = 0 then invalid_arg "Haar.transform: empty input";
  let n = next_power_of_two n0 in
  let a = Array.make n 0. in
  Array.blit values 0 a 0 n0;
  (* Standard non-normalized fast Haar transform with 1/2 averaging;
     orthonormal scaling is applied at thresholding time via levels. *)
  let out = Array.copy a in
  let width = ref n in
  while !width > 1 do
    let half = !width / 2 in
    let tmp = Array.make !width 0. in
    for i = 0 to half - 1 do
      tmp.(i) <- (out.(2 * i) +. out.((2 * i) + 1)) /. 2.;
      tmp.(half + i) <- (out.(2 * i) -. out.((2 * i) + 1)) /. 2.
    done;
    Array.blit tmp 0 out 0 !width;
    width := half
  done;
  out

let inverse coeffs =
  let n = Array.length coeffs in
  if not (is_power_of_two n) then
    invalid_arg "Haar.inverse: length must be a power of two";
  let out = Array.copy coeffs in
  let width = ref 1 in
  while !width < n do
    let half = !width in
    let tmp = Array.make (2 * half) 0. in
    for i = 0 to half - 1 do
      tmp.(2 * i) <- out.(i) +. out.(half + i);
      tmp.((2 * i) + 1) <- out.(i) -. out.(half + i)
    done;
    Array.blit tmp 0 out 0 (2 * half);
    width := 2 * half
  done;
  out

let level_of_index n i =
  (* Index 0 is the average; detail coefficient i (>= 1) lives at the level
     whose block starts at the largest power of two <= i. *)
  if i = 0 then 0
  else begin
    let l = ref 0 and p = ref 1 in
    while 2 * !p <= i do
      p := 2 * !p;
      incr l
    done;
    ignore n;
    !l + 1
  end

let top_coefficients ~b coeffs =
  let n = Array.length coeffs in
  if b < 1 then invalid_arg "Haar.top_coefficients: b must be positive";
  (* Rank by contribution to L2 error: the orthonormal magnitude of a
     detail coefficient at level l is |c| * sqrt(n / 2^(l-1)) / ... —
     equivalently weight |c|^2 * (support length of its wavelet).  Keep the
     overall average always. *)
  let weight i =
    if i = 0 then infinity
    else begin
      let level = level_of_index n i in
      let support = n lsr (level - 1) in
      Float.abs coeffs.(i) *. sqrt (float_of_int support)
    end
  in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a bq -> Float.compare (weight bq) (weight a)) order;
  let keep = Array.make n false in
  for r = 0 to min b n - 1 do
    keep.(order.(r)) <- true
  done;
  Array.mapi (fun i c -> if keep.(i) then c else 0.) coeffs

let synopsis pmf ~b =
  let n0 = Pmf.size pmf in
  let coeffs = transform (Pmf.unsafe_array pmf) in
  let kept = top_coefficients ~b coeffs in
  let rec_full = inverse kept in
  let rec_vals =
    Array.map (fun x -> Float.max 0. x) (Array.sub rec_full 0 n0)
  in
  let approx = Pmf.of_weights (Array.map (fun x -> x +. 1e-300) rec_vals) in
  Khist.of_pmf approx

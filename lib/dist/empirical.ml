let of_counts counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total <= 0 then invalid_arg "Empirical.of_counts: no samples";
  Pmf.of_weights (Array.map float_of_int counts)

let cell_counts part counts =
  if Array.length counts <> Partition.domain_size part then
    invalid_arg "Empirical.cell_counts: counts length mismatch";
  let k = Partition.cell_count part in
  let out = Array.make k 0 in
  Partition.iteri
    (fun j cell ->
      Interval.iter (fun i -> out.(j) <- out.(j) + counts.(i)) cell)
    part;
  out

let add_one_levels part ~counts ~total =
  (* The Laplace-style estimator of Lemma 3.5:
     D̂(j) = (m_I + 1)/(m + ℓ) · 1/|I| for j ∈ I, over ℓ cells. *)
  let ell = Partition.cell_count part in
  if Array.length counts <> ell then
    invalid_arg "Empirical.add_one_levels: need per-cell counts";
  let denom = float_of_int (total + ell) in
  let len j = float_of_int (Interval.length (Partition.cell part j)) in
  let levels =
    Array.init ell (fun j -> float_of_int (counts.(j) + 1) /. denom /. len j)
  in
  let mass = Numkit.Kahan.sum_f ell (fun j -> levels.(j) *. len j) in
  if Float.abs (mass -. 1.) > 1e-9 then
    invalid_arg "Empirical.add_one_levels: total mass is not 1";
  levels

let counts_of_samples ~n samples =
  let counts = Array.make n 0 in
  Array.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_arg "Empirical.counts_of_samples: sample outside domain";
      counts.(s) <- counts.(s) + 1)
    samples;
  counts

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

let add_one_histogram part ~counts ~total =
  (* The Laplace-style estimator of Lemma 3.5:
     D̂(j) = (m_I + 1)/(m + ℓ) · 1/|I| for j ∈ I, over ℓ cells. *)
  let ell = Partition.cell_count part in
  let n = Partition.domain_size part in
  if Array.length counts <> ell then
    invalid_arg "Empirical.add_one_histogram: need per-cell counts";
  let denom = float_of_int (total + ell) in
  let p = Array.make n 0. in
  Partition.iteri
    (fun j cell ->
      let level =
        float_of_int (counts.(j) + 1)
        /. denom
        /. float_of_int (Interval.length cell)
      in
      Interval.iter (fun i -> p.(i) <- level) cell)
    part;
  Pmf.create p

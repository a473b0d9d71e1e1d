let of_counts counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total <= 0 then invalid_arg "Empirical.of_counts: no samples";
  Pmf.of_weights (Array.map float_of_int counts)

let[@histolint.hot] cell_counts_into part counts ~out =
  if Array.length counts <> Partition.domain_size part then
    invalid_arg "Empirical.cell_counts: counts length mismatch";
  let k = Partition.cell_count part in
  if Array.length out < k then
    invalid_arg "Empirical.cell_counts_into: output shorter than the cells";
  for j = 0 to k - 1 do
    let cell = Partition.cell part j in
    let c = ref 0 in
    for i = Interval.lo cell to Interval.hi cell - 1 do
      c := !c + counts.(i)
    done;
    out.(j) <- !c
  done

let cell_counts part counts =
  let out = Array.make (Partition.cell_count part) 0 in
  cell_counts_into part counts ~out;
  out

let[@histolint.hot] add_one_levels part ~counts ~total ~levels =
  (* The Laplace-style estimator of Lemma 3.5:
     D̂(j) = (m_I + 1)/(m + ℓ) · 1/|I| for j ∈ I, over ℓ cells.  The mass
     check is a Neumaier sum over local refs, so no float is boxed. *)
  let ell = Partition.cell_count part in
  if Array.length counts < ell then
    invalid_arg "Empirical.add_one_levels: need per-cell counts";
  if Array.length levels < ell then
    invalid_arg "Empirical.add_one_levels: output shorter than the cells";
  let denom = float_of_int (total + ell) in
  let sum = ref 0. and comp = ref 0. in
  for j = 0 to ell - 1 do
    let len = float_of_int (Interval.length (Partition.cell part j)) in
    let v = float_of_int (counts.(j) + 1) /. denom /. len in
    levels.(j) <- v;
    let x = v *. len in
    let s = !sum +. x in
    if Float.abs !sum >= Float.abs x then comp := !comp +. ((!sum -. s) +. x)
    else comp := !comp +. ((x -. s) +. !sum);
    sum := s
  done;
  if Float.abs (!sum +. !comp -. 1.) > 1e-9 then
    invalid_arg "Empirical.add_one_levels: total mass is not 1"

let permute pmf sigma =
  let n = Pmf.size pmf in
  if Array.length sigma <> n then
    invalid_arg "Ops.permute: permutation length mismatch";
  let p = Pmf.unsafe_array pmf in
  let out = Array.make n 0. in
  (* D_sigma(sigma(i)) = D(i): mass follows the element. *)
  Array.iteri (fun i s -> out.(s) <- p.(i)) sigma;
  Pmf.create out

let embed pmf ~n =
  let m = Pmf.size pmf in
  if n < m then invalid_arg "Ops.embed: target domain smaller than source";
  let out = Array.make n 0. in
  Array.blit (Pmf.unsafe_array pmf) 0 out 0 m;
  Pmf.create out

let flatten pmf part =
  if Partition.domain_size part <> Pmf.size pmf then
    invalid_arg "Ops.flatten: partition domain mismatch";
  let out = Array.make (Pmf.size pmf) 0. in
  Partition.iteri
    (fun _ cell ->
      let mass = Pmf.mass_on pmf cell in
      let level = mass /. float_of_int (Interval.length cell) in
      Interval.iter (fun i -> out.(i) <- level) cell)
    part;
  Pmf.create out

let flatten_outside pmf part ~keep_cells =
  (* The D̃^J of the learning lemma: keep D itself on the cells in J
     (breakpoint intervals), flatten everywhere else. *)
  if Array.length keep_cells <> Partition.cell_count part then
    invalid_arg "Ops.flatten_outside: mask length mismatch";
  let p = Pmf.unsafe_array pmf in
  let out = Array.make (Pmf.size pmf) 0. in
  Partition.iteri
    (fun j cell ->
      if keep_cells.(j) then Interval.iter (fun i -> out.(i) <- p.(i)) cell
      else begin
        let level =
          Pmf.mass_on pmf cell /. float_of_int (Interval.length cell)
        in
        Interval.iter (fun i -> out.(i) <- level) cell
      end)
    part;
  Pmf.create out

let pad_with_heavy_point pmf ~weight =
  if weight < 0. || weight >= 1. then
    invalid_arg "Ops.pad_with_heavy_point: weight outside [0, 1)";
  (* The "standard trick" closing Section 4.2: scale the hard instance down
     to mass [1 - weight] and append one extra element carrying [weight],
     turning a constant-distance lower bound into an eps-dependent one. *)
  let n = Pmf.size pmf in
  let p = Pmf.unsafe_array pmf in
  let out = Array.init (n + 1) (fun i ->
      if i < n then (1. -. weight) *. p.(i) else weight)
  in
  Pmf.create out

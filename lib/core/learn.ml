type result = {
  hypothesis : Khist.t;
  samples_used : int;
  grid_cells : int;
}

let budget ~k ~eps =
  int_of_float (ceil (200. *. float_of_int k /. (eps *. eps)))

let run oracle ~k ~eps =
  if k < 1 then invalid_arg "Learn.run: k must be at least 1";
  if eps <= 0. || eps > 1. then invalid_arg "Learn.run: eps outside (0, 1]";
  let n = oracle.Poissonize.n in
  let m = budget ~k ~eps in
  let counts = oracle.Poissonize.exact m in
  (* Equal-empirical-mass grid of O(k/eps) cells: fine enough that a best
     k-piece fit over the grid loses only O(eps) against the best
     unrestricted k-histogram (the VC/ADLS15 argument), coarse enough that
     the per-cell masses are estimated to +-eps/k overall. *)
  let grid_cells =
    min n (max (4 * k) (int_of_float (8. *. float_of_int k /. eps)))
  in
  let total = Array.fold_left ( + ) 0 counts in
  let per = float_of_int total /. float_of_int grid_cells in
  let breaks = ref [] and acc = ref 0. in
  for i = 0 to n - 2 do
    acc := !acc +. float_of_int counts.(i);
    if !acc >= per then begin
      breaks := (i + 1) :: !breaks;
      acc := 0.
    end
  done;
  let grid = Partition.of_breakpoints ~n (List.rev !breaks) in
  let cell_counts = Empirical.cell_counts grid counts in
  let levels = Array.make (Partition.cell_count grid) 0. in
  Empirical.add_one_levels grid ~counts:cell_counts ~total:m ~levels;
  let empirical = Khist.to_pmf (Khist.lend grid levels) in
  let hypothesis = Construct.greedy_merge empirical ~k in
  { hypothesis; samples_used = m; grid_cells = Partition.cell_count grid }

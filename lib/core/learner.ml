type result = {
  estimate : Pmf.t;
  histogram : Khist.t;
  samples_used : int;
}

let run ?(config = Config.default) oracle ~part ~eps =
  if eps <= 0. || eps > 1. then invalid_arg "Learner.run: eps outside (0, 1]";
  let cells = Partition.cell_count part in
  let m = Config.learner_samples config ~cells ~eps in
  let counts = oracle.Poissonize.exact m in
  let cell_counts = Empirical.cell_counts part counts in
  let estimate = Empirical.add_one_histogram part ~counts:cell_counts ~total:m in
  (* The estimate is constant on each cell, so its value at a cell's
     first element is that cell's add-one level: O(cells), not a re-sum
     of n entries. *)
  let histogram =
    Khist.make part
      (Array.init cells (fun j ->
           Pmf.get estimate (Interval.lo (Partition.cell part j))))
  in
  { estimate; histogram; samples_used = m }

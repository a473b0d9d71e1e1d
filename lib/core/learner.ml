type result = {
  estimate : Pmf.t;
  histogram : Khist.t;
  samples_used : int;
}

let fit ~config ws oracle ~part ~eps =
  if eps <= 0. || eps > 1. then invalid_arg "Learner.fit: eps outside (0, 1]";
  let cells = Partition.cell_count part in
  let m = Config.learner_samples config ~cells ~eps in
  let counts = Workspace.cell_counts ws cells in
  Empirical.cell_counts_into part (oracle.Poissonize.exact m) ~out:counts;
  let levels = Workspace.levels ws cells in
  Empirical.add_one_levels part ~counts ~total:m ~levels;
  (Khist.lend part levels, m)

let run ?(config = Config.default) oracle ~part ~eps =
  (* A fresh workspace lends nothing it will reuse: the histogram is the
     caller's. *)
  let histogram, samples_used =
    fit ~config (Workspace.create ()) oracle ~part ~eps
  in
  { estimate = Khist.to_pmf histogram; histogram; samples_used }

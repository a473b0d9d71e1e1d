type result = {
  estimate : Pmf.t;
  histogram : Khist.t;
  samples_used : int;
}

let fit ~config oracle ~part ~eps =
  if eps <= 0. || eps > 1. then invalid_arg "Learner.fit: eps outside (0, 1]";
  let cells = Partition.cell_count part in
  let m = Config.learner_samples config ~cells ~eps in
  let counts = Empirical.cell_counts part (oracle.Poissonize.exact m) in
  (Khist.make part (Empirical.add_one_levels part ~counts ~total:m), m)

let run ?(config = Config.default) oracle ~part ~eps =
  let histogram, samples_used = fit ~config oracle ~part ~eps in
  { estimate = Khist.to_pmf histogram; histogram; samples_used }

type outcome = {
  verdict : Verdict.t;
  statistic : Chi2stat.t;
  threshold : float;
  samples_used : int;
}

let budget ?(config = Config.default) ~n ~eps () =
  Config.test_samples config ~n ~eps

(* Both entry points: draw the counts, evaluate [stat], threshold Z. *)
let test_with ~config ?ws oracle ~n ~part ~eps stat =
  if eps <= 0. || eps > 1. then invalid_arg "Adk15.run: eps outside (0, 1]";
  if oracle.Poissonize.n <> n then
    invalid_arg "Adk15.run: oracle/hypothesis domain mismatch";
  let kk = Partition.cell_count part in
  let per_cell =
    match ws with Some w -> Workspace.per_cell w kk | None -> Array.make kk 0.
  in
  let m = Config.test_samples config ~n ~eps in
  let fm = float_of_int m in
  let statistic = stat ~per_cell ~counts:(oracle.Poissonize.poissonized fm) fm in
  let threshold = fm *. eps *. eps /. config.Config.z_threshold_div in
  let verdict =
    if statistic.Chi2stat.z <= threshold then Verdict.Accept else Verdict.Reject
  in
  { verdict; statistic; threshold; samples_used = m }

let run ?(config = Config.default) ?cell_mask ?part ?ws oracle ~dstar ~eps =
  let n = Pmf.size dstar in
  let part = match part with Some p -> p | None -> Partition.trivial ~n in
  test_with ~config ?ws oracle ~n ~part ~eps (fun ~per_cell ~counts m ->
      Chi2stat.compute ?cell_mask ~per_cell ~counts ~m ~dstar ~part ~eps ())

let run_khist ~config ~cell_mask ?ws oracle ~dstar ~eps =
  let part = Khist.partition dstar in
  test_with ~config ?ws oracle ~n:(Partition.domain_size part) ~part ~eps
    (fun ~per_cell ~counts m ->
      Chi2stat.compute_khist ~cell_mask ~per_cell ~counts ~m ~dstar ~part ~eps
        ())

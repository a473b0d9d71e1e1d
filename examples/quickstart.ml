(* Quickstart: test whether an unknown distribution is a k-histogram.

   Run with:  dune exec examples/quickstart.exe

   We are handed sample access to two "unknown" distributions over
   [n] = {0, ..., 4095}: one that is secretly a 6-piece histogram and one
   that is smooth (a discretized Gaussian mixture, far from any coarse
   histogram).  Algorithm 1 must accept the first and reject the second —
   without ever seeing the underlying pmfs, only samples. *)

let () =
  let n = 4096 in
  let k = 6 in
  let eps = 0.25 in
  let rng = Randkit.Rng.create ~seed:2016 in

  (* The two hidden distributions. *)
  let histogram_like = Families.staircase ~n ~k ~rng in
  let smooth = Families.bimodal ~n in

  (* Ground truth (the tester never sees this): exact TV distance of each
     instance from the class H_k, via the dynamic program. *)
  Format.printf "Ground truth distances to H_%d:@." k;
  Format.printf "  staircase: %.4f@." (Closest.tv_to_hk histogram_like ~k);
  Format.printf "  bimodal:   %.4f@.@." (Closest.tv_to_hk smooth ~k);

  let test name pmf =
    (* All a tester gets is an oracle producing sample counts; it draws
       them from a split tree built once over the hidden pmf. *)
    let oracle =
      Poissonize.counts_of_tree (Randkit.Rng.split rng) (Split_tree.of_pmf pmf)
    in
    let report = Histotest.Hist_tester.run oracle ~k ~eps in
    Format.printf
      "%-10s -> %a  (decided at %s, %d samples, %d partition cells)@." name
      Verdict.pp report.Histotest.Hist_tester.verdict
      (Histotest.Hist_tester.stage_to_string
         report.Histotest.Hist_tester.decided_at)
      report.Histotest.Hist_tester.samples_used report.Histotest.Hist_tester.cells
  in
  Format.printf "Testing membership in H_%d at eps = %.2f:@." k eps;
  test "staircase" histogram_like;
  test "bimodal" smooth;

  (* The planned worst-case budget, for comparison with what was drawn. *)
  Format.printf "@.Planned budget: %d samples (n = %d, k = %d, eps = %.2f)@."
    (Histotest.Hist_tester.plan ~n ~k ~eps ())
    n k eps

(* E9 — Theorem 3.2 / Proposition 3.3: the Z statistic's mean separation.

   For each instance pair (close in chi^2 / far in TV) we measure the
   empirical mean and standard deviation of Z against the closed-form
   expectation and the decision threshold: completeness instances must sit
   far below the threshold, soundness instances far above, with standard
   deviations that cannot bridge the gap. *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E9 (Thm 3.2 / Prop 3.3: Z-statistic separation)"
    ~claim:
      "E[Z] = m * chi2_truncated; close instances sit far below the \
       m*eps^2/C threshold and far instances far above, with sd << gap.";
  let n = 2048 in
  let eps = 0.25 in
  let draws = if mode.Exp_common.quick then 60 else 300 in
  let config = Histotest.Config.default in
  let m = float_of_int (Histotest.Config.test_samples config ~n ~eps) in
  let threshold = m *. eps *. eps /. config.Histotest.Config.z_threshold_div in
  let part = Partition.equal_width ~n ~cells:16 in
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  Exp_common.row "m = %.0f samples, threshold = %.0f@.@." m threshold;
  Exp_common.row "%14s | %10s | %10s | %10s | %8s@." "instance (D vs D*)"
    "E[Z] emp" "E[Z] exact" "sd(Z)" "verdict";
  Exp_common.hline ();
  let cases =
    [
      ("identical", Pmf.uniform n, Pmf.uniform n);
      ( "chi2-close",
        Pmf.of_weights
          (Array.init n (fun i -> 1. +. (0.01 *. sin (float_of_int i)))),
        Pmf.uniform n );
      ("tv-far", Families.comb ~n ~teeth:32, Pmf.uniform n);
      ( "paninski",
        Families.paninski ~n ~eps:0.25 ~c:2. ~rng,
        Pmf.uniform n );
    ]
  in
  List.iter
    (fun (name, d, dstar) ->
      let oracle =
        Poissonize.counts_of_tree (Randkit.Rng.split rng) (Split_tree.of_pmf d)
      in
      let zs =
        Array.init draws (fun _ ->
            let counts = oracle.Poissonize.poissonized m in
            (Chi2stat.compute ~counts ~m ~dstar ~part ~eps ()).Chi2stat.z)
      in
      let s = Numkit.Summary.of_array zs in
      let exact = Chi2stat.expectation ~d ~dstar ~part ~eps ~m () in
      let verdict =
        if Numkit.Summary.mean s <= threshold then "accept" else "reject"
      in
      Exp_common.row "%14s | %10.0f | %10.0f | %10.0f | %8s@." name
        (Numkit.Summary.mean s) exact (Numkit.Summary.stddev s) verdict)
    cases;
  Exp_common.row
    "@.Expected shape: empirical means match the closed form; 'identical'@.";
  Exp_common.row
    "and 'chi2-close' sit below the threshold by many sd, 'tv-far' and@.";
  Exp_common.row "'paninski' above it by many sd.@."

(* E15 (extension) — the CDVV14 two-sample statistic (footnote 2 of the
   paper credits this line of work for the chi^2-style analysis).

   Closeness testing: given samples from two unknown distributions, decide
   equal vs eps-far.  We verify the statistic's null centering and far-case
   mean, and sweep the budget to locate the transition. *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E15 (extension: CDVV14 two-sample closeness)"
    ~claim:
      "Z = sum ((X-Y)^2 - X - Y)/(X+Y) is centered under D1 = D2 and \
       ~2 m eps^2 under dTV >= eps; thresholding at m eps^2/C tests \
       closeness with O(sqrt(n)/eps^2) samples per distribution.";
  let n = 2048 in
  let eps = 0.25 in
  let trials = if mode.Exp_common.quick then 20 else 60 in
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  let base = Families.zipf ~n ~s:1. in
  let far = Families.comb ~n ~teeth:32 in
  let base_tree = Split_tree.of_pmf base and far_tree = Split_tree.of_pmf far in
  Exp_common.row "pairs: (zipf, zipf) same; (uniform, comb32) tv = %.3f@.@."
    (Distance.tv (Pmf.uniform n) far);
  Exp_common.row "%10s | %10s | %10s | %10s@." "mult" "samples/ea"
    "err(same)" "err(far)";
  Exp_common.hline ();
  List.iter
    (fun mult ->
      let config =
        Histotest.Config.scale_budget Histotest.Config.default mult
      in
      (* The error rate against [want]: the harness's trials draw from
         [p1], each trial's second oracle from [tree2] with a generator
         split off the trial's own (a separate stream, see Rng.split), as
         in `histotest closeness`. *)
      let error p1 tree2 want =
        let wrong =
          Exp_common.run_trials ~mode ~rng ~trials ~pmf:p1 (fun t ->
              let o2 =
                Poissonize.counts_of_tree (Randkit.Rng.split t.Harness.rng)
                  tree2
              in
              (Histotest.Closeness.run ~config t.Harness.oracle o2 ~eps)
                .Histotest.Closeness.verdict
              <> want)
        in
        float_of_int (Exp_common.count Fun.id wrong) /. float_of_int trials
      in
      let err_same = error base base_tree Verdict.Accept in
      let err_far = error (Pmf.uniform n) far_tree Verdict.Reject in
      Exp_common.row "%10.3f | %10d | %10.2f | %10.2f@." mult
        (Histotest.Closeness.budget ~config ~n ~eps ())
        err_same err_far)
    [ 0.01; 0.05; 0.2; 1.0 ];
  Exp_common.row
    "@.Expected shape: err(same) is the null statistic's tail above the@.";
  Exp_common.row
    "threshold m eps^2/10, large while Z's spread (~sqrt(2 x occupied@.";
  Exp_common.row
    "cells)) exceeds it and ~0 by x1; err(far) falls first — the same@.";
  Exp_common.row "transition anatomy as the one-sample tests it inspired.@."

(* E8 — Lemma 3.5: the add-one learner's chi^2 guarantee off breakpoints.

   For k-histogram inputs, measure dchi2(D~J || D-hat) where J are the
   breakpoint cells: the lemma promises <= eps_learn^2 with probability
   9/10 at the configured budget.  For contrast, the unmasked divergence
   on the same runs shows the contamination the sieve must remove. *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E8 (Lemma 3.5: chi^2 learner)"
    ~claim:
      "Off the breakpoint cells, the learned D-hat is chi^2-accurate at \
       eps_learn^2; on them it can be arbitrarily poor.";
  let n = 4096 in
  let eps = 0.25 in
  let runs = if mode.Exp_common.quick then 20 else 80 in
  let config = Histotest.Config.default in
  let eps_learn = eps /. config.Histotest.Config.learner_eps_div in
  let bound = eps_learn *. eps_learn in
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  Exp_common.row "%12s | %12s | %12s | %10s | %12s@." "instance"
    "masked chi2" "(p90)" "within" "full chi2";
  Exp_common.hline ();
  List.iter
    (fun (name, pmf) ->
      let part = Partition.equal_width ~n ~cells:256 in
      let breakpoints = Khist.breakpoint_cells pmf part in
      let keep = Array.map not breakpoints in
      let mask = Partition.restrict_mask part ~keep in
      (* Per run: the masked and the full divergence of the fit. *)
      let fits =
        Exp_common.run_trials ~mode ~rng ~trials:runs ~pmf (fun trial ->
            let learned, _ =
              Histotest.Learner.fit ~config trial.Harness.ws
                trial.Harness.oracle ~part ~eps
            in
            let dhat = Khist.to_pmf learned in
            ( Distance.chi2_mask mask pmf ~against:dhat,
              Distance.chi2 pmf ~against:dhat ))
      in
      let masked = Array.map fst fits in
      let within = Exp_common.count (fun c -> c <= bound) masked in
      Exp_common.row "%12s | %12.2e | %12.2e | %7d/%d | %12.2e@." name
        (Numkit.Summary.mean_of masked)
        (Numkit.Summary.quantile masked 0.9)
        within runs
        (Numkit.Summary.mean_of (Array.map snd fits)))
    [
      ("stair-2", Families.staircase ~n ~k:2 ~rng);
      ("stair-8", Families.staircase ~n ~k:8 ~rng);
      ("khist-16", Families.random_khist ~n ~k:16 ~rng);
      ("uniform", Pmf.uniform n);
    ];
  Exp_common.row "@.Bound eps_learn^2 = %.2e; expected: 'within' >= 9/10 of@."
    bound;
  Exp_common.row
    "runs, masked chi2 orders of magnitude below the unmasked column for@.";
  Exp_common.row "instances whose breakpoints miss the grid.@."

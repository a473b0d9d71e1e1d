(* E4 — Proposition 4.1: the Omega(sqrt(n)/eps^2) barrier.

   The Q_eps family is eps-far from H_k (k < n/3) yet indistinguishable
   from uniform below ~sqrt(n)/eps^2 samples.  We sweep the sample budget
   of the collision uniformity tester across the bound and watch the error
   on the (uniform, Q_eps) pair go from coin-flipping to solved; then we
   confirm the full Algorithm 1 at a starved budget is equally blind. *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E4 (Prop 4.1: sqrt(n)/eps^2 lower bound)"
    ~claim:
      "Below ~sqrt(n)/eps^2 samples the Q_eps family cannot be told from \
       uniform; above it, it can.";
  (* Full mode pushes n to 2^20: the Paninski instance only gets harder
     with n, and the split-tree trial oracle's cost does not scale with
     the sqrt(n)/eps^2 budget. *)
  let n = if mode.Exp_common.quick then 4096 else 1048576 in
  let eps = 0.1 in
  let trials = if mode.Exp_common.quick then 20 else 60 in
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  let q = Histotest.Lowerbound.paninski_instance ~n ~eps ~rng () in
  Exp_common.row "instance: tv(Q, uniform) = %.3f, tv(Q, H_16) = %.3f@.@."
    (Distance.tv q (Pmf.uniform n))
    (Closest.tv_to_hk q ~k:16);

  Exp_common.row "%10s | %10s | %9s | %9s@." "mult" "samples" "err(unif)"
    "err(Q)";
  Exp_common.hline ();
  List.iter
    (fun mult ->
      let config =
        Histotest.Config.scale_budget Histotest.Config.default mult
      in
      let run oracle =
        (Histotest.Uniformity.run ~config oracle ~eps).Histotest.Uniformity
          .verdict
      in
      let e_yes, e_no =
        Exp_common.error_pair ~mode ~trials ~yes:(Pmf.uniform n) ~no:q run
      in
      Exp_common.row "%10.3f | %10d | %9.2f | %9.2f@." mult
        (Histotest.Uniformity.budget ~config ~n ~eps ())
        e_yes e_no)
    [ 0.004; 0.016; 0.062; 0.25; 1.0 ];
  (* The full pipeline at a starved budget is blind too. *)
  let alg_trials = if mode.Exp_common.quick then 2 else 6 in
  Exp_common.row "@.Algorithm 1 (k = 16) on the same pair:@.";
  List.iter
    (fun mult ->
      let config =
        Histotest.Config.scale_budget Histotest.Config.default mult
      in
      let run oracle = Histotest.Hist_tester.test ~config oracle ~k:16 ~eps in
      let e_yes, e_no =
        Exp_common.error_pair ~mode ~trials:alg_trials ~yes:(Pmf.uniform n)
          ~no:q run
      in
      Exp_common.row "  budget x%.3f: err(unif) %.2f, err(Q) %.2f@." mult e_yes
        e_no)
    [ 0.01; 1.0 ];
  Exp_common.row
    "@.Expected shape: at tiny multipliers at least one error column is@.";
  Exp_common.row
    "large (below the information bound the pair cannot be told apart,@.";
  Exp_common.row
    "so any decision rule errs on one side), dropping to <= 1/3 at x1.@."

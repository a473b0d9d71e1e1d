(* E1 — Theorem 1.1, domain-size term: the tester's sample budget scales
   like sqrt(n) at fixed (k, eps).

   Method: at each n we run Algorithm 1 with its budget scaled by a
   multiplier.  If the sqrt(n) law is right, the full budget (x1.00) is
   sufficient at every n (worst-side error <= 1/3) while a small fraction
   of it is insufficient at every n — i.e. the success/failure transition
   sits at an n-independent multiplier.  The planned-budget column shows
   the absolute sqrt(n) growth. *)

let k = 4
let eps = 0.25

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E1 (Thm 1.1: sqrt(n) scaling)"
    ~claim:
      "Algorithm 1 succeeds at its c*sqrt(n)/eps^2-scaled budget and fails \
       at a constant fraction of it, uniformly in n.";
  (* The trial oracle draws count vectors from a split tree, so per-trial
     cost is independent of the sample budget and --full can afford
     paper-scale domains. *)
  let ns =
    if mode.Exp_common.quick then [ 1024; 4096; 16384 ]
    else [ 4096; 16384; 65536; 262144; 1048576; 4194304 ]
  in
  let mults = if mode.Exp_common.quick then [ 0.04; 0.15; 1.0 ]
              else [ 0.1; 0.25; 0.5; 1.0; 2.0 ] in
  let trials = if mode.Exp_common.quick then 4 else 12 in
  Exp_common.row "%6s | %9s | %6s | %14s | %9s | %9s@." "n" "budget(x1)"
    "mult" "scaled budget" "err(yes)" "err(no)";
  Exp_common.hline ();
  List.iter
    (fun n ->
      let yes = Exp_common.yes_instance ~n ~k ~seed:mode.Exp_common.seed in
      let no = Exp_common.no_instance ~n ~k in
      let base_budget = Histotest.Hist_tester.plan ~n ~k ~eps () in
      List.iter
        (fun mult ->
          let config = Exp_common.scaled_config mult in
          let e_yes, e_no =
            Exp_common.error_pair ~mode ~trials ~yes ~no (fun oracle ->
                Histotest.Hist_tester.test ~config oracle ~k ~eps)
          in
          Exp_common.row "%6d | %9d | %6.2f | %14d | %9.2f | %9.2f@." n
            base_budget mult
            (Histotest.Hist_tester.plan ~config ~n ~k ~eps ())
            e_yes e_no)
        mults)
    ns;
  Exp_common.row
    "@.Expected shape: err <= 1/3 on both sides at x1.00 for every n; the@.";
  Exp_common.row
    "starved multiplier fails somewhere, and budget(x1) grows ~sqrt(n)@.";
  Exp_common.row "(x2 per 4x n).@."

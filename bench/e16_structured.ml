(* E16 (extension) — DKN15-style identity testing under a structural
   promise: when the unknown D is promised to be a k-histogram, identity
   against an explicit k-histogram D* needs only O(sqrt(k/eps)/eps^2)
   samples — independent of n — versus the O(sqrt(n)/eps^2) of the generic
   ADK15 test.  The domain collapse (cells of D*-mass <= eps/8k) is what
   the promise buys. *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E16 (extension: DKN15 structured identity)"
    ~claim:
      "Under the k-histogram promise, identity testing collapses the \
       domain to O(k/eps) cells: the budget stops growing with n while \
       staying correct.";
  let k = 4 in
  let eps = 0.25 in
  let trials = if mode.Exp_common.quick then 10 else 30 in
  let ns = if mode.Exp_common.quick then [ 4096; 65536; 1048576 ]
           else [ 4096; 65536; 1048576; 16777216 ] in
  Exp_common.row "%9s | %12s | %12s | %9s | %9s | %7s@." "n" "structured"
    "generic" "err(same)" "err(far)" "cells";
  Exp_common.hline ();
  List.iter
    (fun n ->
      let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
      let dstar = Families.staircase ~n ~k ~rng in
      let far =
        Pmf.of_weights
          (Array.init n (fun i -> if i / (n / k) mod 2 = 0 then 5. else 1.))
      in
      let err_same, err_far =
        Exp_common.error_pair ~mode ~trials ~yes:dstar ~no:far (fun o ->
            (Histotest.Structured_identity.run o ~dstar ~k ~eps)
              .Histotest.Structured_identity.verdict)
      in
      (* What [run] reads off D* alone: the collapsed domain, tested at
         eps/2. *)
      let cells =
        Partition.cell_count
          (Histotest.Structured_identity.reduction_partition ~dstar ~k ~eps)
      in
      Exp_common.row "%9d | %12d | %12d | %9.2f | %9.2f | %7d@." n
        (Histotest.Structured_identity.budget ~cells ~eps:(eps /. 2.) ())
        (Histotest.Adk15.budget ~n ~eps ())
        err_same err_far cells)
    ns;
  Exp_common.row
    "@.Expected shape: the structured budget is flat in n (the collapsed@.";
  Exp_common.row
    "domain never grows) while the generic column grows ~sqrt(n); errors@.";
  Exp_common.row "stay <= 1/3 throughout.@."

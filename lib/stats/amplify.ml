let repetitions_for ~delta =
  if delta <= 0. || delta >= 1. then
    invalid_arg "Amplify.repetitions_for: delta outside (0, 1)";
  (* Chernoff: r independent 2/3-correct trials are majority-correct with
     failure probability <= exp(-r/18); solve for r, keep it odd. *)
  let r = int_of_float (ceil (18. *. log (1. /. delta))) in
  let r = max 1 r in
  if r mod 2 = 0 then r + 1 else r

(* Repetition loops run on a Parkit pool.  The default is the sequential
   pool, NOT the process default: most callers pass a closure that draws
   from one shared oracle (one shared generator), which is only correct
   run one at a time.  Callers whose [f] is independent per index opt in
   with [?pool]. *)

let majority_vote ?(pool = Parkit.Pool.sequential) ~trials f =
  if trials <= 0 then invalid_arg "Amplify.majority_vote: trials <= 0";
  let verdicts = Parkit.Pool.init pool trials f in
  let accepts =
    Array.fold_left
      (fun acc v -> if Verdict.equal v Verdict.Accept then acc + 1 else acc)
      0 verdicts
  in
  if 2 * accepts > trials then Verdict.Accept else Verdict.Reject

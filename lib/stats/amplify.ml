let repetitions_for ~delta =
  if delta <= 0. || delta >= 1. then
    invalid_arg "Amplify.repetitions_for: delta outside (0, 1)";
  (* Chernoff: r independent 2/3-correct trials are majority-correct with
     failure probability <= exp(-r/18); solve for r, keep it odd. *)
  let r = int_of_float (ceil (18. *. log (1. /. delta))) in
  let r = max 1 r in
  if r mod 2 = 0 then r + 1 else r

(* Sequential on purpose: callers pass a closure that draws from one
   shared oracle (one shared generator), which is only correct run one at
   a time, in index order. *)
let majority_vote ~trials f =
  if trials <= 0 then invalid_arg "Amplify.majority_vote: trials <= 0";
  let accepts = ref 0 in
  for i = 0 to trials - 1 do
    if Verdict.equal (f i) Verdict.Accept then incr accepts
  done;
  if 2 * !accepts > trials then Verdict.Accept else Verdict.Reject

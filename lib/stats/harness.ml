type trial = {
  rng : Randkit.Rng.t;
  oracle : Poissonize.oracle;
  ws : Workspace.t;
}

(* One generator per trial, split off *sequentially before dispatch*: the
   child streams — and therefore every trial's samples — are fixed by the
   seed alone, so a parallel run is bit-identical to a sequential one
   regardless of how the pool schedules the trials. *)
let split_rngs ~rng ~trials =
  let rngs = Array.make trials rng in
  for i = 0 to trials - 1 do
    rngs.(i) <- Randkit.Rng.split rng
  done;
  rngs

let run_trials ~pool ~rng ~trials ~pmf f =
  (* The O(n) split tree depends only on the PMF: build it once and share
     it read-only across all trials (and domains).  Each trial's oracle
     draws into the workspace of whichever domain runs it — trials on a
     domain run strictly in sequence, so the buffers are reused, not
     raced — and the draw streams are fixed by the pre-split generators
     alone, so results stay bit-identical at any job count.  Building the
     tree and the oracle consumes no randomness. *)
  let tree = Split_tree.of_pmf pmf in
  let rngs = split_rngs ~rng ~trials in
  Parkit.Pool.map pool
    (fun child ->
      let ws = Workspace.domain_local () in
      let oracle = Poissonize.counts_of_tree_ws ws child tree in
      f { rng = child; oracle; ws })
    rngs

let accept_rate ~pool ~rng ~trials ~pmf decide =
  let verdicts = run_trials ~pool ~rng ~trials ~pmf decide in
  let accepts =
    Array.fold_left
      (fun acc v -> if Verdict.equal v Verdict.Accept then acc + 1 else acc)
      0 verdicts
  in
  float_of_int accepts /. float_of_int trials

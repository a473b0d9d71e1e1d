(* E10 — The sieving stage, ablated (corrigendum focus).

   The PODS 2023 corrigendum concerns the delicate part of the upper-bound
   argument: the iterative sieve's schedule.  We plant c = 14 contaminated
   cells (of varying strength) into an otherwise perfectly learned
   hypothesis over 24 cells, with k = 4 — so one round (capped at k
   removals, the paper's "l <= k'") cannot clean the domain, the heavy cut
   only catches the strongest offenders, and the removal budget
   ~2 k log k = 24 is ample but not unlimited.  (c = 14 exceeds the <= k-1
   breakpoint cells a true completeness instance can have; the point is to
   stress every schedule component at once.)  Variants:

   - default        : stage-1 heavy cut + capped sorted-prefix rounds
   - no-stage1      : skip the one-shot heavy-cell cut
   - single-round   : one removal round only (no iteration)
   - tight-budget   : removal budget scaled to ~k/2 cells
   - no-sieve       : nothing removable (pre-sieve testing-by-learning)

   Each variant reports: sieve completion rate, planted cells removed,
   spurious removals, rounds used, and whether the final chi^2 test then
   accepts the cleaned domain (all averaged over completed runs). *)

let variants k =
  let d = Histotest.Config.default in
  [
    ("default", d);
    ("no-stage1", { d with Histotest.Config.sieve_stage1_mult = 1e9 });
    ( "single-round",
      {
        d with
        Histotest.Config.sieve_extra_rounds =
          1 - Histotest.Config.log2i (k + 1);
      } );
    ("tight-budget", { d with Histotest.Config.sieve_budget_factor = 0.2 });
    ("no-sieve", { d with Histotest.Config.sieve_budget_factor = 0. });
  ]

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E10 (S3.2.1 sieve ablation - corrigendum focus)"
    ~claim:
      "The staged schedule (heavy cut, per-round cap of k removals, \
       O(log k) rounds, k log k budget) is what cleans the domain; each \
       ablation loses completions or leaks contamination into the final \
       test.";
  let n = 3072 in
  let k = 4 in
  let eps = 0.25 in
  let cells = 24 in
  let trials = if mode.Exp_common.quick then 6 else 24 in
  let part = Partition.equal_width ~n ~cells in
  let planted = [ 1; 2; 3; 5; 7; 9; 11; 13; 15; 17; 19; 20; 21; 22 ] in
  (* Zig-zag contamination at two strengths: three strong cells trip the
     stage-1 cut (more would exceed its k-cap and rightly reject); eleven
     weak cells sit below the cut and must be found by the sorted rounds,
     at most k per round. *)
  let w = Array.make n 1. in
  List.iteri
    (fun rank j ->
      let amp = match rank with 0 -> 0.45 | 1 -> 0.35 | 2 -> 0.28 | _ -> 0.1 in
      let cell = Partition.cell part j in
      Interval.iter
        (fun i ->
          w.(i) <-
            (if (i - Interval.lo cell) mod 2 = 0 then 1. +. amp
             else Float.max 0.05 (1. -. amp)))
        cell)
    planted;
  let d = Pmf.of_weights w in
  let dhat = Khist.flatten_pmf d part in
  let eligible = Array.make cells true in
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  Exp_common.row "(sieve budget at k=%d: %d cells; rounds: %d; %d planted)@.@."
    k
    (Histotest.Config.sieve_budget Histotest.Config.default ~k)
    (Histotest.Config.sieve_rounds Histotest.Config.default ~k)
    (List.length planted);
  Exp_common.row "%13s | %9s | %9s | %9s | %7s | %10s@." "variant"
    "completed" "planted" "spurious" "rounds" "final-test";
  Exp_common.hline ();
  List.iter
    (fun (name, config) ->
      (* A completed sieve's planted and spurious removals, its rounds,
         and whether the final test accepts. *)
      let outs =
        Exp_common.run_trials ~mode ~rng ~trials ~pmf:d (fun trial ->
            let ws = trial.Harness.ws and oracle = trial.Harness.oracle in
            let res =
              Histotest.Sieve.run_khist ~config ws oracle ~dhat ~eligible ~k
                ~eps
            in
            if res.Histotest.Sieve.verdict <> Verdict.Accept then None
            else
              let kept = res.Histotest.Sieve.kept in
              let removed = Exp_common.count not kept in
              let hit =
                List.length (List.filter (fun j -> not kept.(j)) planted)
              in
              let final =
                Histotest.Adk15.run_khist ~config ~cell_mask:kept ~ws oracle
                  ~dstar:dhat
                  ~eps:(eps *. config.Histotest.Config.test_eps_frac)
              in
              Some
                ( hit,
                  removed - hit,
                  res.Histotest.Sieve.rounds_used,
                  final.Histotest.Adk15.verdict = Verdict.Accept ))
      in
      let sieved = List.filter_map Fun.id (Array.to_list outs) in
      let completed = List.length sieved in
      let avg f =
        float_of_int (List.fold_left (fun acc o -> acc + f o) 0 sieved)
        /. float_of_int (max 1 completed)
      in
      let accepted = List.length (List.filter (fun (_, _, _, a) -> a) sieved) in
      Exp_common.row "%13s | %6d/%-2d | %6.1f/%d | %9.1f | %7.1f | %7d/%-2d@."
        name completed trials
        (avg (fun (hit, _, _, _) -> hit))
        (List.length planted)
        (avg (fun (_, spurious, _, _) -> spurious))
        (avg (fun (_, _, rounds, _) -> rounds))
        accepted completed)
    (variants k);
  Exp_common.row
    "@.Expected shape: 'default' and 'no-stage1' complete, remove 12-13 of@.";
  Exp_common.row
    "the 14 planted cells over ~4 rounds, and the final test accepts.@.";
  Exp_common.row
    "'single-round' completes but leaves ~7 contaminated cells, so the@.";
  Exp_common.row
    "final test rejects (the cleaning is incomplete).  'tight-budget' and@.";
  Exp_common.row
    "'no-sieve' cannot fit the removals and reject during sieving.@."

type round_log = {
  round : int;
  z_before : float;
  removed : int list;
  z_after : float;
  stopped : bool;
}

type result = {
  kept : bool array;
  verdict : Verdict.t;
  removed_count : int;
  rounds_used : int;
  samples_used : int;
  stop_threshold : float;
  log : round_log list;
}

(* The rounds over [kk] cells; D̂'s representation only changes [stat],
   which writes one repetition's per-cell statistic into [per_cell]. *)
let rounds ~config oracle ~stat ~kk ~eligible ~k ~eps =
  if k < 1 then invalid_arg "Sieve.run: k must be at least 1";
  if eps <= 0. || eps > 1. then invalid_arg "Sieve.run: eps outside (0, 1]";
  if Array.length eligible <> kk then
    invalid_arg "Sieve.run: eligibility mask length mismatch";
  let n = oracle.Poissonize.n in
  let alpha = Config.sieve_alpha config ~eps in
  let m = float_of_int (Config.test_samples config ~n ~eps:alpha) in
  let reps = Config.sieve_reps config ~k in
  let rounds = Config.sieve_rounds config ~k in
  let budget = Config.sieve_budget config ~k in
  let stop = Config.sieve_stop_threshold config ~m ~eps in
  let stage1_cut = config.Config.sieve_stage1_mult *. stop in
  let keep_target = config.Config.sieve_keep_frac *. stop in
  let kept = Array.make kk true in
  let removed_count = ref 0 in
  let samples = ref 0 in
  let log = ref [] in
  (* Per-repetition statistic rows and the median scratch column are
     allocated once here and reused by every round: each row is handed to
     [stat] as its output buffer (which zeroes it), so the
     O(rounds * reps) statistic evaluations — the sieve's entire sampling
     cost — allocate nothing per cell.  The counts the oracle returns are
     consumed within the repetition that drew them, so a workspace-backed
     oracle is safe here. *)
  let per_rep = Array.init reps (fun _ -> Array.make kk 0.) in
  let med_column = Array.make reps 0. in
  let meds = Array.make kk 0. in
  let cell_medians () =
    for r = 0 to reps - 1 do
      let counts = oracle.Poissonize.poissonized m in
      ignore
        (stat ~cell_mask:kept ~per_cell:per_rep.(r) ~counts ~m ~eps:alpha
          : Chi2stat.t)
    done;
    for j = 0 to kk - 1 do
      for r = 0 to reps - 1 do
        med_column.(r) <- per_rep.(r).(j)
      done;
      meds.(j) <- Numkit.Summary.median med_column
    done
  in
  let sum_kept meds =
    Numkit.Kahan.sum_f kk (fun j -> if kept.(j) then meds.(j) else 0.)
  in
  let exception Decided of Verdict.t * int in
  let result_of verdict rounds_used =
    {
      kept;
      verdict;
      removed_count = !removed_count;
      rounds_used;
      samples_used = !samples;
      stop_threshold = stop;
      log = List.rev !log;
    }
  in
  try
    for round = 1 to rounds do
      cell_medians ();
      samples := !samples + (reps * int_of_float m);
      let z_before = sum_kept meds in
      let removed_this_round = ref [] in
      let remove j =
        kept.(j) <- false;
        incr removed_count;
        removed_this_round := j :: !removed_this_round;
        if !removed_count > budget then
          raise (Decided (Verdict.Reject, round))
      in
      (* Stage 1 (first round): discard outright any removable cell whose
         statistic alone exceeds the whole clean-domain allowance — the
         "heavy ones" of §3.2.1.  The paper rejects if more than k such
         cells exist. *)
      if round = 1 then begin
        let heavy_hits = ref 0 in
        for j = 0 to kk - 1 do
          if kept.(j) && eligible.(j) && meds.(j) > stage1_cut then begin
            incr heavy_hits;
            if !heavy_hits > k then raise (Decided (Verdict.Reject, round));
            remove j
          end
        done
      end;
      let z_mid = sum_kept meds in
      if z_mid < stop then begin
        log :=
          {
            round;
            z_before;
            removed = List.rev !removed_this_round;
            z_after = z_mid;
            stopped = true;
          }
          :: !log;
        raise (Decided (Verdict.Accept, round))
      end;
      (* Stage 2: sort the removable cells by decreasing statistic and
         discard the smallest prefix bringing the kept total under the
         residual target — at most k cells per round ("l <= k'" in the
         paper), which is what makes the O(log k) iteration necessary. *)
      let order =
        List.init kk (fun j -> j)
        |> List.filter (fun j -> kept.(j) && eligible.(j))
        |> List.sort (fun a b -> Float.compare meds.(b) meds.(a))
      in
      let residual = ref z_mid in
      let this_round = ref 0 in
      List.iter
        (fun j ->
          if !residual > keep_target && meds.(j) > 0. && !this_round < k
          then begin
            remove j;
            incr this_round;
            residual := !residual -. meds.(j)
          end)
        order;
      log :=
        {
          round;
          z_before;
          removed = List.rev !removed_this_round;
          z_after = !residual;
          stopped = false;
        }
        :: !log
    done;
    (* Rounds exhausted: per the paper, the sieving part is simply over and
       the later stages decide (they will reject if the domain is still
       contaminated). *)
    result_of Verdict.Accept rounds
  with Decided (verdict, rounds_used) -> result_of verdict rounds_used

let run ?(config = Config.default) oracle ~dhat ~part ~eligible ~k ~eps =
  rounds ~config oracle ~kk:(Partition.cell_count part) ~eligible ~k ~eps
    ~stat:(fun ~cell_mask ~per_cell ~counts ~m ~eps ->
      Chi2stat.compute ~cell_mask ~per_cell ~counts ~m ~dstar:dhat ~part ~eps ())

let run_khist ~config oracle ~dhat ~eligible ~k ~eps =
  let part = Khist.partition dhat in
  rounds ~config oracle ~kk:(Khist.pieces dhat) ~eligible ~k ~eps
    ~stat:(fun ~cell_mask ~per_cell ~counts ~m ~eps ->
      Chi2stat.compute_khist ~cell_mask ~per_cell ~counts ~m ~dstar:dhat ~part
        ~eps ())

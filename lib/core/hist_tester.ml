type stage = Sieving | Checking | Testing

let stage_to_string = function
  | Sieving -> "sieving"
  | Checking -> "checking"
  | Testing -> "testing"

type report = {
  verdict : Verdict.t;
  decided_at : stage;
  samples_used : int;
  cells : int;
  sieve : Sieve.result option;
  check_distance : float option;
  final : Adk15.outcome option;
}

let plan ?(config = Config.default) ~n ~k ~eps () =
  let b = Config.part_b config ~k ~eps in
  let m_part = Config.part_samples config ~b in
  let cells_bound = (2 * b) + 2 in
  let m_learn = Config.learner_samples config ~cells:cells_bound ~eps in
  let alpha = Config.sieve_alpha config ~eps in
  let m_sieve_round =
    Config.sieve_reps config ~k * Config.test_samples config ~n ~eps:alpha
  in
  let m_sieve = Config.sieve_rounds config ~k * m_sieve_round in
  let m_final =
    Config.test_samples config ~n ~eps:(eps *. config.Config.test_eps_frac)
  in
  m_part + m_learn + m_sieve + m_final

let run ?(config = Config.default) ?ws oracle ~k ~eps =
  let n = oracle.Poissonize.n in
  if k < 1 || k > n then invalid_arg "Hist_tester.run: need 1 <= k <= n";
  if eps <= 0. || eps > 1. then
    invalid_arg "Hist_tester.run: eps outside (0, 1]";
  (* Every stage keeps its cell-sized arrays in the workspace; what the
     report keeps (the sieve's [kept] mask) is the trial's own. *)
  let ws = match ws with Some w -> w | None -> Workspace.create () in
  (* Step 1-3: adaptive partition. *)
  let b = Config.part_b config ~k ~eps in
  let part, part_samples = Approx_part.partition ~config ws oracle ~b in
  let kk = Partition.cell_count part in
  (* Step 4: chi^2 learner on the partition.  D-hat is constant on each
     cell and G is a union of cells, so the later stages read D-hat as K
     levels and G as the sieve's [kept] mask: never n points. *)
  let dhat, learn_samples = Learner.fit ~config ws oracle ~part ~eps in
  let samples_so_far = part_samples + learn_samples in
  (* Steps 6-8: sieving.  Only cells that can hide a breakpoint strictly
     inside them (length >= 2) are removable; this is also what bounds the
     discarded mass by 2/b per cell in the soundness case. *)
  let eligible = Workspace.eligible ws kk in
  for j = 0 to kk - 1 do
    eligible.(j) <- Interval.length (Partition.cell part j) >= 2
  done;
  let sieve = Sieve.run_khist ~config ws oracle ~dhat ~eligible ~k ~eps in
  let samples_so_far = samples_so_far + sieve.Sieve.samples_used in
  if Verdict.equal sieve.Sieve.verdict Verdict.Reject then
    {
      verdict = Verdict.Reject;
      decided_at = Sieving;
      samples_used = samples_so_far;
      cells = kk;
      sieve = Some sieve;
      check_distance = None;
      final = None;
    }
  else begin
    (* Step 10: is D-hat close to *some* k-histogram on the kept domain?
       Half the DP's l1 cost, as in [Closest.tv_to_hk]. *)
    let l1, _ =
      Closest.fit_khist (Workspace.closest ws) dhat ~keep:sieve.Sieve.kept ~k
    in
    let check_distance = 0.5 *. l1 in
    let check_tolerance = eps /. config.Config.check_eps_div in
    if check_distance > check_tolerance then
      {
        verdict = Verdict.Reject;
        decided_at = Checking;
        samples_used = samples_so_far;
        cells = kk;
        sieve = Some sieve;
        check_distance = Some check_distance;
        final = None;
      }
    else begin
      (* Step 13: chi^2-vs-TV test of D against D-hat on the kept domain,
         at eps' = 13 eps / 30. *)
      let eps' = eps *. config.Config.test_eps_frac in
      let final =
        Adk15.run_khist ~config ~cell_mask:sieve.Sieve.kept ~ws oracle
          ~dstar:dhat ~eps:eps'
      in
      {
        verdict = final.Adk15.verdict;
        decided_at = Testing;
        samples_used = samples_so_far + final.Adk15.samples_used;
        cells = kk;
        sieve = Some sieve;
        check_distance = Some check_distance;
        final = Some final;
      }
    end
  end

let test ?config ?ws oracle ~k ~eps = (run ?config ?ws oracle ~k ~eps).verdict

let pp_report ppf r =
  Format.fprintf ppf "@[<v>verdict: %a (decided at %s)@," Verdict.pp r.verdict
    (stage_to_string r.decided_at);
  Format.fprintf ppf "samples: %d over %d partition cells@," r.samples_used
    r.cells;
  (match r.sieve with
  | Some s ->
      Format.fprintf ppf "sieve: removed %d cells in %d rounds (%s)@,"
        s.Sieve.removed_count s.Sieve.rounds_used
        (Verdict.to_string s.Sieve.verdict)
  | None -> ());
  (match r.check_distance with
  | Some d -> Format.fprintf ppf "check: tv(D-hat, H_k | G) = %.4f@," d
  | None -> ());
  (match r.final with
  | Some f ->
      Format.fprintf ppf "final: Z = %.1f vs threshold %.1f@,"
        f.Adk15.statistic.Chi2stat.z f.Adk15.threshold
  | None -> ());
  Format.fprintf ppf "@]"

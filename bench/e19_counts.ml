(* E19 — harness engineering, not a paper claim: the counts-path oracle
   (Poissonize.counts_of_tree over Distrib.Split_tree), which every
   Harness trial draws from, against the alias stream path that
   Refkit.Stream_trials keeps as its reference.

   Three measurements:

   1. per-trial oracle time vs m at fixed n = 2^20 on a sparse-support
      K-histogram (2^11 heavy singletons, so K <= 2^12 pieces): the
      stream path is Θ(m) alias draws, the counts path
      O(K log(n/K)) binomial splits + the O(n) result-buffer zeroing —
      flat in m.  Target: >= 50x at m = 2^22.  Full mode adds the same
      sweep on a dense full-support staircase, where the counts path is
      bounded by O(n) binomials instead — still flat in m, but the
      crossover against the stream path sits around m ~ 10n, which is
      exactly why the sparse regime is the headline and the dense row is
      reported honestly next to it.  Each row also records the split
      tree's stored splits and KiB, and the run fails (exit 1) if a
      piecewise tree stores more than B·log₂ width splits for B changes
      of value.
   2. chi^2 path equivalence: both paths draw Poissonized count vectors
      of the same zipf pmf for T trials; per-cell totals are
      Poisson(T*mean*p_i) on each path, so conditioned on the pair sum
      each cell is Binomial(a+b, 1/2) under the null that the paths
      sample the same law.  The summed (a-b)^2/(a+b) statistic is
      chi^2(#cells); we fail the gate (and exit non-zero, like E18's
      exactness gate) if its p-value via gamma_p drops below 1e-9.
   3. verdict-distribution equivalence: Algorithm 1 accept rates over
      trial ensembles on yes/no instances across an (n, k, eps) grid,
      Refkit.Stream_trials vs Harness; the two-proportion z-score must
      stay below 5.
      The two paths consume generators differently, so this is the same
      pin discipline as Refkit.Closest_dense: distributional, never
      bit-exact.

   One machine-readable line per run is appended to BENCH_counts.json. *)

let bench_file = "BENCH_counts.json"

(* Mean per-trial seconds of [draw ()] over [trials] runs.  One warmup
   draw grows the workspace buffers outside the clock, and a full major
   collection fences off GC debt left by the previous arm (the stream
   arm's per-draw garbage would otherwise be paid for during the counts
   arm's measurement). *)
let per_trial_time ~trials draw =
  draw ();
  Gc.full_major ();
  let _, t =
    Exp_common.wall_time_of (fun () ->
        for _ = 1 to trials do
          draw ()
        done)
  in
  t /. float_of_int trials

(* The split tree's footprint on a piecewise pmf against its bound: a
   tree stores a split only for the nodes straddling a change of value,
   at most B·log₂ width for B changes (the padding boundary counts when
   the last entry is nonzero). *)
type tree_stats = { stored : int; kib : float; bound : int }

let tree_stats pmf tree =
  let n = Pmf.size pmf in
  let changes = ref 0 in
  for j = 1 to n - 1 do
    if not (Float.equal (Pmf.get pmf (j - 1)) (Pmf.get pmf j)) then
      incr changes
  done;
  let width = ref 1 and levels = ref 0 in
  while !width < n do
    width := 2 * !width;
    incr levels
  done;
  if n < !width && not (Float.equal (Pmf.get pmf (n - 1)) 0.) then
    incr changes;
  {
    stored = Split_tree.stored tree;
    kib = float_of_int (Split_tree.bytes tree) /. 1024.;
    bound = !changes * !levels;
  }

let print_tree_stats s =
  Exp_common.row
    "split tree: %d stored splits (bound B*log2(width) = %d), %.1f KiB -> \
     %s@."
    s.stored s.bound s.kib
    (if s.stored <= s.bound then "PASS" else "FAIL")

let timing_rows ~seed ~trials ~ms ~pmf =
  let alias = Alias.of_pmf pmf in
  let tree = Split_tree.of_pmf pmf in
  let stats = tree_stats pmf tree in
  ( stats,
    List.map
      (fun m ->
        let fm = float_of_int m in
        let time o =
          per_trial_time ~trials (fun () ->
              ignore (o.Poissonize.poissonized fm))
        in
        let stream_s =
          time
            (Refkit.Stream_trials.of_alias_ws (Workspace.create ())
               (Randkit.Rng.create ~seed) alias)
        in
        let counts_s =
          time
            (Poissonize.counts_of_tree_ws (Workspace.create ())
               (Randkit.Rng.create ~seed) tree)
        in
        (m, stream_s, counts_s, stream_s /. Float.max 1e-9 counts_s))
      ms )

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E19 (counts-path oracle: trials without samples)"
    ~claim:
      "Binomial splitting over a shared interval tree generates the \
       Poissonized count vector in O(K log(n/K)) per trial independent of \
       m, while sampling the same law as the Θ(m) alias stream path.";
  let seed = mode.Exp_common.seed in
  let quick = mode.Exp_common.quick in

  (* 1. Per-trial generation time vs m. *)
  let n = 1 lsl 20 in
  let spikes = 1 lsl 11 in
  let sparse =
    Families.spiked ~n ~spikes ~spike_mass:1.0
      ~rng:(Randkit.Rng.create ~seed)
  in
  let ms =
    if quick then [ 1 lsl 18; 1 lsl 20; 1 lsl 22 ]
    else [ 1 lsl 16; 1 lsl 18; 1 lsl 20; 1 lsl 22; 1 lsl 24 ]
  in
  let trials = if quick then 5 else 20 in
  Exp_common.row
    "sparse K-histogram: n=%d, %d heavy singletons (K <= %d pieces), %d \
     trials per point@."
    n spikes
    ((2 * spikes) + 1)
    trials;
  Exp_common.row "%10s | %12s | %12s | %8s@." "m" "stream ms" "counts ms"
    "speedup";
  Exp_common.hline ();
  let sparse_tree, sparse_rows = timing_rows ~seed ~trials ~ms ~pmf:sparse in
  List.iter
    (fun (m, s, c, x) ->
      Exp_common.row "%10d | %12.3f | %12.3f | %7.1fx@." m (1e3 *. s)
        (1e3 *. c) x)
    sparse_rows;
  print_tree_stats sparse_tree;
  let counts_times = List.map (fun (_, _, c, _) -> c) sparse_rows in
  let flat_ratio =
    List.fold_left Float.max neg_infinity counts_times
    /. Float.max 1e-9 (List.fold_left Float.min infinity counts_times)
  in
  let top_speedup =
    match List.rev sparse_rows with (_, _, _, x) :: _ -> x | [] -> nan
  in
  Exp_common.row
    "counts path max/min per-trial time across the m sweep: %.2fx (flat)@."
    flat_ratio;
  if top_speedup < 50. then
    Exp_common.row
      "WARNING: speedup %.1fx at m=%d below the 50x target on this host@."
      top_speedup
      (List.fold_left max 0 ms);
  let dense_tree, dense_rows =
    if quick then (None, [])
    else begin
      let dense = Exp_common.yes_instance ~n ~k:64 ~seed in
      Exp_common.row
        "@.dense full-support staircase (same n; counts path bounded by \
         O(n) binomials):@.";
      let stats, rows = timing_rows ~seed ~trials ~ms ~pmf:dense in
      List.iter
        (fun (m, s, c, x) ->
          Exp_common.row "%10d | %12.3f | %12.3f | %7.1fx@." m (1e3 *. s)
            (1e3 *. c) x)
        rows;
      print_tree_stats stats;
      (Some stats, rows)
    end
  in
  (* Both timing pmfs are piecewise, so both trees are held to the
     bound. *)
  let tree_pass =
    List.for_all
      (fun s -> s.stored <= s.bound)
      (sparse_tree :: Option.to_list dense_tree)
  in

  (* 2. chi^2 equivalence of per-cell count marginals. *)
  let eq_n = 512 in
  let eq_pmf = Families.zipf ~n:eq_n ~s:1.0 in
  let eq_mean = 4000. in
  let eq_trials = if quick then 300 else 1000 in
  let totals path_seed make =
    let acc = Array.make eq_n 0 in
    let ws = Workspace.create () in
    let o = make ws (Randkit.Rng.create ~seed:path_seed) in
    for _ = 1 to eq_trials do
      let counts = o.Poissonize.poissonized eq_mean in
      for i = 0 to eq_n - 1 do
        acc.(i) <- acc.(i) + counts.(i)
      done
    done;
    acc
  in
  let alias = Alias.of_pmf eq_pmf and tree = Split_tree.of_pmf eq_pmf in
  (* Distinct seeds: the ensembles must be independent for the two-sample
     statistic to be chi^2 under the null. *)
  let a =
    totals seed (fun ws r -> Refkit.Stream_trials.of_alias_ws ws r alias)
  in
  let b =
    totals (seed + 1) (fun ws r -> Poissonize.counts_of_tree_ws ws r tree)
  in
  let stat = ref 0. and df = ref 0 in
  for i = 0 to eq_n - 1 do
    let s = a.(i) + b.(i) in
    if s > 0 then begin
      let d = float_of_int (a.(i) - b.(i)) in
      stat := !stat +. (d *. d /. float_of_int s);
      incr df
    end
  done;
  let p_value =
    1. -. Numkit.Special.gamma_p (float_of_int !df /. 2.) (!stat /. 2.)
  in
  let chi2_pass = p_value > 1e-9 in
  Exp_common.row
    "@.chi^2 path equivalence (zipf n=%d, mean=%g, %d trials/path): stat \
     %.1f on %d df, p = %.3g -> %s@."
    eq_n eq_mean eq_trials !stat !df p_value
    (if chi2_pass then "PASS" else "FAIL");

  (* 3. Verdict-distribution equivalence across an (n, k, eps) grid. *)
  let v_trials = if quick then 60 else 200 in
  let config = Exp_common.scaled_config 1.0 in
  let grid = [ (1024, 4, 0.25); (2048, 8, 0.2) ] in
  Exp_common.row
    "@.Algorithm 1 accept rates, %d trials per cell (|z| <= 5 gate):@."
    v_trials;
  Exp_common.row "%6s | %3s | %5s | %5s | %10s | %10s | %6s@." "n" "k" "eps"
    "side" "stream" "counts" "z";
  Exp_common.hline ();
  let verdict_rows =
    Parkit.Pool.with_pool ~jobs:mode.Exp_common.jobs @@ fun pool ->
    List.concat_map
      (fun (vn, vk, veps) ->
        let yes = Exp_common.yes_instance ~n:vn ~k:vk ~seed in
        let no = Exp_common.no_instance ~n:vn ~k:vk in
        List.map
          (fun (side, pmf) ->
            let rate accept_rate =
              accept_rate ~pool ~rng:(Randkit.Rng.create ~seed)
                ~trials:v_trials ~pmf (fun trial ->
                  Histotest.Hist_tester.test ~config ~ws:trial.Harness.ws
                    trial.Harness.oracle ~k:vk ~eps:veps)
            in
            let rs = rate Refkit.Stream_trials.accept_rate
            and rc = rate Harness.accept_rate in
            let pooled = (rs +. rc) /. 2. in
            let se =
              sqrt (pooled *. (1. -. pooled) *. 2. /. float_of_int v_trials)
            in
            let z = if se > 0. then Float.abs (rs -. rc) /. se else 0. in
            Exp_common.row "%6d | %3d | %5.2f | %5s | %10.3f | %10.3f | %6.2f@."
              vn vk veps side rs rc z;
            (vn, vk, veps, side, rs, rc, z))
          [ ("yes", yes); ("no", no) ])
      grid
  in
  let verdict_pass =
    List.for_all (fun (_, _, _, _, _, _, z) -> z <= 5.) verdict_rows
  in
  if not verdict_pass then
    Exp_common.row "WARNING: verdict distributions diverge between paths@.";
  let equivalence_pass = chi2_pass && verdict_pass in

  let row_json tree rows =
    String.concat ","
      (List.map
         (fun (m, s, c, x) ->
           Printf.sprintf
             "{\"m\":%d,\"stream_ms\":%.3f,\"counts_ms\":%.3f,\"speedup\":%.1f,\
              \"tree_stored\":%d,\"tree_kib\":%.1f}"
             m (1e3 *. s) (1e3 *. c) x tree.stored tree.kib)
         rows)
  in
  let json =
    Printf.sprintf
      "{\"bench\":\"e19_counts\",\"n\":%d,\"spikes\":%d,\"k_pieces\":%d,\
       \"trials\":%d,\"seed\":%d,\"nproc\":%d,\"sparse\":[%s],\"dense\":[%s],\
       \"counts_flat_ratio\":%.2f,\"speedup_at_max_m\":%.1f,\
       \"tree_bound\":%d,\"tree_pass\":%b,\
       \"chi2\":{\"trials\":%d,\"stat\":%.2f,\"df\":%d,\"p_value\":%.6g,\
       \"pass\":%b},\
       \"verdicts\":[%s],\"equivalence_pass\":%b}"
      n spikes
      ((2 * spikes) + 1)
      trials mode.Exp_common.seed (Exp_common.nproc ())
      (row_json sparse_tree sparse_rows)
      (match dense_tree with Some t -> row_json t dense_rows | None -> "")
      flat_ratio top_speedup sparse_tree.bound tree_pass eq_trials !stat !df
      p_value chi2_pass
      (String.concat ","
         (List.map
            (fun (vn, vk, veps, side, rs, rc, z) ->
              Printf.sprintf
                "{\"n\":%d,\"k\":%d,\"eps\":%g,\"side\":\"%s\",\
                 \"stream\":%.4f,\"counts\":%.4f,\"z\":%.2f}"
                vn vk veps side rs rc z)
            verdict_rows))
      equivalence_pass
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 bench_file
  in
  output_string oc (json ^ "\n");
  close_out oc;
  Exp_common.row "@.%s@." json;
  Exp_common.row "(appended to %s)@." bench_file;
  if not tree_pass then
    Exp_common.row "FAIL: a piecewise tree stores more splits than its bound@.";
  if not (equivalence_pass && tree_pass) then exit 1

(* E17 — harness engineering, not a paper claim: trial throughput and
   allocation behaviour of the parkit-powered experiment loop.

   Three measurements at n = 2^16:

   1. alias sharing — the sequential win from building the O(n) Vose
      table once per PMF (Poissonize.of_alias) instead of once per trial
      (Poissonize.of_pmf inside the loop).  Measured on a probe-style
      workload (a few hundred draws per trial, the regime of a
      sample-complexity sweep's small budgets) where the per-trial
      rebuild used to dominate; reported even on one core.
   2. GC pressure of the chi^2 hot path — the allocating oracle plus a
      replica of the per-cell-Kahan statistic (what the harness ran
      before workspaces) against the workspace oracle plus the buffered
      Chi2stat, same seeds.  Minor-collection and allocated-byte deltas
      are read with Gc.quick_stat, and the two arms must produce
      bit-identical Z sums.  Both arms run on this domain under the
      minor heap the runtime gave it; no pool changes it.
   3. trial throughput (trials/sec) of an E1-style Algorithm 1 workload
      at jobs in {1, 2, 4}, each job count checked to produce the same
      accept count as jobs = 1 (the pre-split-then-dispatch determinism
      contract), with per-job GC deltas recorded.  Every job count runs
      under the runtime's own minor heap on every domain.

   Speedup on this machine is bounded by Domain.recommended_domain_count;
   job counts beyond it are tagged "oversubscribed" in the JSON and can
   only lose time to stop-the-world coordination.  One machine-readable
   line per run is appended to BENCH_parallel.json so the perf
   trajectory accumulates across commits. *)

let n = 65536
let k = 4
let eps = 0.25
let bench_file = "BENCH_parallel.json"

let accepts_of verdicts =
  Array.fold_left
    (fun acc v -> if v = Verdict.Accept then acc + 1 else acc)
    0 verdicts

(* The pre-workspace statistic, verbatim: a fresh per_cell array, a fresh
   Kahan accumulator per cell, a boxed float argument per element.  Kept
   here (not in lib/) purely as the GC comparison baseline; arithmetic is
   bit-identical to Chi2stat.compute. *)
let pr1_chi2 ~counts ~m ~dstar ~part ~eps =
  let nn = Pmf.size dstar in
  let cutoff = Chi2stat.heavy_cutoff ~eps ~n:nn in
  let ds = Pmf.unsafe_array dstar in
  let kk = Partition.cell_count part in
  let per_cell = Array.make kk 0. in
  Partition.iteri
    (fun j cell ->
      let acc = Numkit.Kahan.create () in
      Interval.iter
        (fun i ->
          let dsi = ds.(i) in
          if dsi >= cutoff then begin
            let expected = m *. dsi in
            let ni = float_of_int counts.(i) in
            let d = ni -. expected in
            Numkit.Kahan.add acc (((d *. d) -. ni) /. expected)
          end)
        cell;
      per_cell.(j) <- Numkit.Kahan.total acc)
    part;
  Numkit.Kahan.sum_array per_cell

(* GC deltas of [f ()]: minor collections, and bytes allocated summed
   over every domain, those [f] spawned and joined included.
   Gc.quick_stat sums all domains (Gc.allocated_bytes counts only the
   caller's, so it halved as jobs doubled), but it sees a live domain's
   nursery only at a minor collection, so one is forced before each
   reading and left out of the count.  Refkit.Alloc.measure, which reads
   only the calling domain, cannot take this reading. *)
let gc_deltas f =
  let bytes s =
    (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
    *. float_of_int (Sys.word_size / 8)
  in
  Gc.minor ();
  let s0 = Gc.quick_stat () in
  let x = f () in
  let minor1 = (Gc.quick_stat ()).Gc.minor_collections in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  (x, minor1 - s0.Gc.minor_collections, bytes s1 -. bytes s0)

let mb bytes = bytes /. (1024. *. 1024.)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E17 (parallel trial engine)"
    ~claim:
      "Shared alias tables remove the per-trial O(n) setup, workspaces \
       remove the per-trial allocation churn, and parkit spreads trials \
       across domains with bit-identical results.";
  let pmf = Exp_common.yes_instance ~n ~k ~seed:mode.Exp_common.seed in
  let cores = Domain.recommended_domain_count () in
  Exp_common.row "recommended domains on this host: %d@.@." cores;

  (* 1. Alias sharing, sequentially, on a light probe workload: accept
     iff a handful of samples lands an even count on element 0.  The
     rebuild arm reproduces the old harness inner loop: split, build the
     O(n) table, draw. *)
  let probe_trials = if mode.Exp_common.quick then 50 else 400 in
  let probe_m = 512 in
  let probe oracle =
    let counts = oracle.Poissonize.exact probe_m in
    if counts.(0) mod 2 = 0 then Verdict.Accept else Verdict.Reject
  in
  let rebuild_arm () =
    let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
    let accepts = ref 0 in
    for _ = 1 to probe_trials do
      let oracle = Poissonize.of_pmf (Randkit.Rng.split rng) pmf in
      if probe oracle = Verdict.Accept then incr accepts
    done;
    !accepts
  in
  let shared_probe_arm () =
    let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
    accepts_of
      (Harness.run_trials ~pool:Parkit.Pool.sequential ~rng
         ~trials:probe_trials ~pmf (fun trial -> probe trial.Harness.oracle))
  in
  let accepts_rebuild, t_rebuild = Exp_common.wall_time_of rebuild_arm in
  let accepts_probe, t_shared = Exp_common.wall_time_of shared_probe_arm in
  let alias_speedup = t_rebuild /. Float.max 1e-9 t_shared in
  Exp_common.row
    "alias table, %d probe trials (m=%d, n=%d):@." probe_trials probe_m n;
  Exp_common.row "  rebuild per trial %.3f s | shared table %.3f s | %.1fx@."
    t_rebuild t_shared alias_speedup;
  if accepts_rebuild <> accepts_probe then
    Exp_common.row "WARNING: shared arm accepted %d but rebuild arm %d@."
      accepts_probe accepts_rebuild;

  (* 2. GC pressure of the chi^2 hot path.  Same seed per arm, so the
     draw streams and therefore the Z sums must match bit for bit. *)
  let gc_trials = if mode.Exp_common.quick then 30 else 100 in
  let gc_m = 4096. in
  let alias = Alias.of_pmf pmf in
  let part = Partition.equal_width ~n ~cells:64 in
  let dstar = pmf in
  let pr1_arm () =
    let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
    let z = ref 0. in
    for _ = 1 to gc_trials do
      let oracle = Poissonize.of_alias (Randkit.Rng.split rng) alias in
      let counts = oracle.Poissonize.poissonized gc_m in
      z := !z +. pr1_chi2 ~counts ~m:gc_m ~dstar ~part ~eps
    done;
    !z
  in
  let ws_arm () =
    let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
    let ws = Workspace.create () in
    let per_cell = Workspace.per_cell ws (Partition.cell_count part) in
    let z = ref 0. in
    for _ = 1 to gc_trials do
      let oracle = Poissonize.of_alias_ws ws (Randkit.Rng.split rng) alias in
      let counts = oracle.Poissonize.poissonized gc_m in
      let stat =
        Chi2stat.compute ~per_cell ~counts ~m:gc_m ~dstar ~part ~eps ()
      in
      z := !z +. stat.Chi2stat.z
    done;
    !z
  in
  Gc.full_major ();
  let z_pr1, minor_pr1, bytes_pr1 = gc_deltas pr1_arm in
  Gc.full_major ();
  let z_ws, minor_ws, bytes_ws = gc_deltas ws_arm in
  let per_trial x = float_of_int x /. float_of_int gc_trials in
  let minor_reduction =
    per_trial minor_pr1 /. Float.max (per_trial minor_ws) (1. /. float_of_int gc_trials)
  in
  let alloc_reduction = bytes_pr1 /. Float.max 1. bytes_ws in
  let z_match = z_pr1 = z_ws in
  Exp_common.row
    "@.chi^2 hot path, %d trials (m=%g, n=%d, %d cells):@." gc_trials gc_m n
    (Partition.cell_count part);
  Exp_common.row
    "  allocating path: %5.2f minor GCs/trial, %7.2f MB/trial@."
    (per_trial minor_pr1) (mb bytes_pr1 /. float_of_int gc_trials);
  Exp_common.row
    "  workspace path:  %5.2f minor GCs/trial, %7.2f MB/trial@."
    (per_trial minor_ws) (mb bytes_ws /. float_of_int gc_trials);
  Exp_common.row "  minor-GC reduction %.1fx | allocation reduction %.1fx@."
    minor_reduction alloc_reduction;
  if not z_match then
    Exp_common.row "WARNING: workspace arm Z %.17g <> allocating arm Z %.17g@."
      z_ws z_pr1;

  (* 3. Throughput of a real tester workload across job counts. *)
  let trials = if mode.Exp_common.quick then 12 else 48 in
  let config = Exp_common.scaled_config 0.1 in
  let decide (trial : Harness.trial) =
    Histotest.Hist_tester.test ~config ~ws:trial.Harness.ws
      trial.Harness.oracle ~k ~eps
  in
  let tester_arm pool () =
    let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
    accepts_of (Harness.run_trials ~pool ~rng ~trials ~pmf decide)
  in
  Exp_common.row "@.%d Algorithm-1 trials per job count:@." trials;
  Exp_common.row "%5s | %10s | %12s | %10s | %9s | %9s@." "jobs" "time (s)"
    "trials/sec" "accepts" "minor GCs" "alloc MB";
  Exp_common.hline ();
  let job_rows =
    List.map
      (fun jobs ->
        let (accepts, t), dminor, dbytes =
          gc_deltas (fun () ->
              Parkit.Pool.with_pool ~jobs (fun pool ->
                  Exp_common.wall_time_of (tester_arm pool)))
        in
        let rate = float_of_int trials /. Float.max 1e-9 t in
        Exp_common.row "%5d | %10.3f | %12.1f | %7d/%d | %9d | %9.1f@." jobs t
          rate accepts trials dminor (mb dbytes);
        if jobs > cores then
          Exp_common.row
            "WARNING: jobs=%d exceeds the %d recommended domains on this \
             host — expect no speedup, only coordination overhead.@."
            jobs cores;
        (jobs, t, rate, accepts, dminor, dbytes))
      [ 1; 2; 4 ]
  in
  let base_accepts, base_rate =
    match job_rows with
    | (_, _, r, a, _, _) :: _ -> (a, r)
    | [] -> (0, nan)
  in
  List.iter
    (fun (jobs, _, _, a, _, _) ->
      if a <> base_accepts then
        Exp_common.row "WARNING: jobs=%d accepts differ from jobs=1!@." jobs)
    job_rows;
  let deterministic =
    List.for_all (fun (_, _, _, a, _, _) -> a = base_accepts) job_rows
    && accepts_rebuild = accepts_probe && z_match
  in

  (* 4. Same workload on the counts-path oracle: one split tree built and
     shared read-only across domains, per-domain workspaces as before.
     Accept counts differ from section 3 (different generator consumption)
     but must again agree across job counts within the counts path. *)
  let counts_arm pool () =
    let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
    accepts_of
      (Harness.run_trials ~pool ~oracle:Harness.Counts ~rng ~trials ~pmf
         decide)
  in
  Exp_common.row "@.same %d trials on the counts-path oracle:@." trials;
  Exp_common.row "%5s | %10s | %12s | %10s@." "jobs" "time (s)" "trials/sec"
    "accepts";
  Exp_common.hline ();
  let counts_rows =
    List.map
      (fun jobs ->
        let accepts, t =
          Parkit.Pool.with_pool ~jobs (fun pool ->
              Exp_common.wall_time_of (counts_arm pool))
        in
        let rate = float_of_int trials /. Float.max 1e-9 t in
        Exp_common.row "%5d | %10.3f | %12.1f | %7d/%d@." jobs t rate accepts
          trials;
        (jobs, t, rate, accepts))
      [ 1; 2; 4 ]
  in
  let counts_base_accepts, counts_base_rate =
    match counts_rows with
    | (_, _, r, a) :: _ -> (a, r)
    | [] -> (0, nan)
  in
  let counts_deterministic =
    List.for_all (fun (_, _, _, a) -> a = counts_base_accepts) counts_rows
  in
  if not counts_deterministic then
    Exp_common.row "WARNING: counts-path accepts differ across job counts!@.";
  let json =
    Printf.sprintf
      "{\"bench\":\"e17_parallel\",\"n\":%d,\"k\":%d,\"eps\":%g,\"trials\":%d,\
       \"seed\":%d,\"cores_recommended\":%d,\
       \"alias_shared_speedup\":%.2f,\
       \"gc\":{\"trials\":%d,\"m\":%g,\"minor_per_trial_alloc\":%.2f,\
       \"minor_per_trial_ws\":%.2f,\"minor_gc_reduction\":%.1f,\
       \"mb_per_trial_alloc\":%.2f,\"mb_per_trial_ws\":%.2f,\
       \"alloc_reduction\":%.1f,\"z_match\":%b},\
       \"deterministic\":%b,\"jobs\":[%s],\
       \"counts_deterministic\":%b,\"counts_jobs\":[%s]}"
      n k eps trials mode.Exp_common.seed cores alias_speedup gc_trials gc_m
      (per_trial minor_pr1) (per_trial minor_ws) minor_reduction
      (mb bytes_pr1 /. float_of_int gc_trials)
      (mb bytes_ws /. float_of_int gc_trials)
      alloc_reduction z_match deterministic
      (String.concat ","
         (List.map
            (fun (jobs, t, rate, _, dminor, dbytes) ->
              Printf.sprintf
                "{\"jobs\":%d,\"seconds\":%.4f,\"trials_per_sec\":%.2f,\
                 \"speedup\":%.3f,\"minor_collections\":%d,\
                 \"allocated_mb\":%.1f,\"oversubscribed\":%b}"
                jobs t rate (rate /. base_rate) dminor (mb dbytes)
                (jobs > cores))
            job_rows))
      counts_deterministic
      (String.concat ","
         (List.map
            (fun (jobs, t, rate, _) ->
              Printf.sprintf
                "{\"jobs\":%d,\"seconds\":%.4f,\"trials_per_sec\":%.2f,\
                 \"speedup\":%.3f,\"oversubscribed\":%b}"
                jobs t rate
                (rate /. counts_base_rate)
                (jobs > cores))
            counts_rows))
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 bench_file
  in
  output_string oc (json ^ "\n");
  close_out oc;
  Exp_common.row "@.%s@." json;
  Exp_common.row "(appended to %s)@." bench_file

(* E18 — the checking DP off the K^2 wall: dense reference vs
   divide-and-conquer closest-H_k DP (no new paper claim; this is the
   perf trajectory of Step 10 and everything built on it — Model_select
   doubling probes, E12 selectivity sweeps, the E13/E14 ledgers).

   For each (K, k): a zipf pmf flattened to K constant cells, then

     build   — Numkit.Rank_index construction over the K cells
               (O(K log K), the cost the fast path pays per fit), timed
               as a warm rebuild of an index already sized for them;
     query   — mean latency of a single seg_cost call over a fixed
               deterministic batch of random segments (the O(log K)
               oracle the DP drives);
     D&C     — Closest.fit_cells, the monotone-argmin fast path
               (re-builds its own index, so its total time is
               build + DP; the DP split reported is total - build,
               or null where the two timings invert);
     dense   — Refkit.Closest_dense.fit_cells, the Theta(K^2 k) reference
               with its K x K cost matrix.

   Every row cross-checks the two paths: exact_match is true iff the
   costs are equal float for float AND the chosen piece starts are
   identical (the leftmost-argmin tie-break contract).  Allocation
   totals (Gc.allocated_bytes deltas) expose the memory story: the
   dense path's K x K matrix is 8*K^2 bytes (128 MB at K = 4096), the
   fast path stays O(K log K).

   The "learned" rows time the DP on the cells Algorithm 1's checking
   step actually fits: D-hat from ApproxPart and the learner on a
   counts-oracle draw, masked by the sieve, through cells_of_khist — on
   the yes staircase and the no comb of alg1-trials.  Learned values are
   noisy, so these rows run the row scan (each segment priced once,
   relaxing every layer), which the zipf rows never reach.  Each reports
   a warm fit (the second in one scratch, as a trial's workspace runs
   it): the minor and direct major words it allocated (from Gc.counters,
   which sees a direct major allocation at once; promoted words are not
   the fit's), and the best wall ms
   of 5 warm calls beside the best of 3 dense ones.  Quick mode: n = 2^16
   at k = 4 and n = 2^20 at k = 16 (K ~ 2.5k: a many-layer exactness
   check); --full adds n = 2^20 at k = 32 (K ~ 6.3k, where the dense
   reference's K x K matrix alone takes ~330 MB).

   One machine-readable line per run is appended to BENCH_closest.json
   so the perf trajectory accumulates across commits. *)

let bench_file = "BENCH_closest.json"

type row = {
  cells : int;
  k : int;
  t_build : float;
  query_ns : float;
  t_fast : float;
  t_dense : float;
  fast_mb : float;
  dense_mb : float;
  exact : bool;
}

let mb bytes = bytes /. (1024. *. 1024.)

let measure ~seed ~cells ~k =
  let n = 4 * cells in
  let pmf =
    Ops.flatten (Families.zipf ~n ~s:1.) (Partition.equal_width ~n ~cells)
  in
  let cs = Closest.cells_of_pmf pmf in
  let kk = Array.length cs in
  let values = Array.map (fun c -> c.Closest.value) cs in
  let weights = Array.map (fun c -> c.Closest.weight) cs in
  (* Build split, measured warm on the same cells: a second rebuild of
     one index, whose first rebuild sized its tables.  Timed cold, the
     first build could read longer than the whole fit. *)
  let idx = Numkit.Rank_index.create ~values ~weights in
  let floats a =
    Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a
  in
  let values_ba = floats values and weights_ba = floats weights in
  let (), t_build =
    Exp_common.wall_time_of (fun () ->
        Numkit.Rank_index.rebuild idx ~values:values_ba ~weights:weights_ba
          ~len:kk)
  in
  (* Oracle latency over a deterministic batch of random segments. *)
  let nq = 4096 in
  let rng = Randkit.Rng.create ~seed in
  let segs =
    Array.init nq (fun _ ->
        let a = Randkit.Rng.int rng kk and b = Randkit.Rng.int rng kk in
        if a <= b then (a, b + 1) else (b, a + 1))
  in
  let sink, t_query =
    Exp_common.wall_time_of (fun () ->
        let acc = ref 0. in
        Array.iter
          (fun (lo, hi) ->
            acc := !acc +. Numkit.Rank_index.seg_cost idx ~lo ~hi)
          segs;
        !acc)
  in
  ignore (Sys.opaque_identity sink);
  let query_ns = t_query /. float_of_int nq *. 1e9 in
  let alloc_timed f =
    let a0 = Gc.allocated_bytes () in
    let x, t = Exp_common.wall_time_of f in
    (x, t, mb (Gc.allocated_bytes () -. a0))
  in
  let (cost_fast, starts_fast), t_fast, fast_mb =
    alloc_timed (fun () -> Closest.fit_cells cs ~k)
  in
  let (cost_dense, starts_dense), t_dense, dense_mb =
    alloc_timed (fun () -> Refkit.Closest_dense.fit_cells cs ~k)
  in
  let exact =
    Float.equal cost_fast cost_dense
    && List.equal Int.equal starts_fast starts_dense
  in
  {
    cells = kk;
    k;
    t_build;
    query_ns;
    t_fast;
    t_dense;
    fast_mb;
    dense_mb;
    exact;
  }

type learned_row = {
  family : string;
  n : int;
  lk : int;
  lcells : int;
  warm_ms : float;
  warm_minor : float;
  warm_major : float;
  ldense_ms : float;
  lexact : bool;
}

(* Algorithm 1's steps 1-8 on one draw, as Hist_tester.run takes them. *)
let learned_cells ~seed ~pmf ~k ~eps =
  let module H = Histotest in
  let config = H.Config.default in
  let o =
    Poissonize.counts_of_tree (Randkit.Rng.create ~seed) (Split_tree.of_pmf pmf)
  in
  let part =
    (H.Approx_part.run ~config o ~b:(H.Config.part_b config ~k ~eps))
      .H.Approx_part.partition
  in
  let ws = Workspace.create () in
  let dhat, _ = H.Learner.fit ~config ws o ~part ~eps in
  let eligible =
    Array.init (Partition.cell_count part) (fun j ->
        Interval.length (Partition.cell part j) >= 2)
  in
  let sieve = H.Sieve.run_khist ~config ws o ~dhat ~eligible ~k ~eps in
  Closest.cells_of_khist dhat ~keep:sieve.H.Sieve.kept

(* The fastest of [reps] calls: one call of a few ms is at the mercy of
   the host's scheduling. *)
let best_of reps f =
  let x, t = Exp_common.wall_time_of f in
  let best = ref t in
  for _ = 2 to reps do
    best := Float.min !best (snd (Exp_common.wall_time_of f))
  done;
  (x, !best)

let measure_learned ~seed ~family ~pmf ~n ~k ~eps =
  let cs = learned_cells ~seed ~pmf ~k ~eps in
  let scratch = Closest.scratch () in
  ignore (Closest.fit_cells ~scratch cs ~k : float * int list);
  (* Direct major words: a major cycle that ends inside the window
     empties the minor heap and promotes the live words of the fit and
     of this measurement, which [Gc.counters] adds to its major words. *)
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let m0 = Gc.minor_words () in
  ignore (Closest.fit_cells ~scratch cs ~k : float * int list);
  let warm_minor = Gc.minor_words () -. m0 in
  let _, promoted1, major1 = Gc.counters () in
  let (cost_fast, starts_fast), t_fast =
    best_of 5 (fun () -> Closest.fit_cells ~scratch cs ~k)
  in
  let (cost_dense, starts_dense), t_dense =
    best_of 3 (fun () -> Refkit.Closest_dense.fit_cells cs ~k)
  in
  {
    family;
    n;
    lk = k;
    lcells = Array.length cs;
    warm_ms = t_fast *. 1e3;
    warm_minor;
    warm_major = major1 -. major0 -. (promoted1 -. promoted0);
    ldense_ms = t_dense *. 1e3;
    lexact =
      Float.equal cost_fast cost_dense
      && List.equal Int.equal starts_fast starts_dense;
  }

let learned_rows (mode : Exp_common.mode) =
  let grid =
    (1 lsl 16, 4, 0.25)
    :: (1 lsl 20, 16, 0.5)
    :: (if mode.Exp_common.quick then [] else [ (1 lsl 20, 32, 0.5) ])
  in
  let seed = mode.Exp_common.seed in
  Exp_common.row "@.Learned cells (Algorithm 1's checking input):@.";
  Exp_common.row "%-9s | %7s | %3s | %6s | %9s | %8s | %8s | %9s | %5s@."
    "family" "n" "k" "K" "warm (ms)" "minor w" "major w" "dense(ms)" "exact";
  Exp_common.hline ();
  List.concat_map
    (fun (n, k, eps) ->
      List.map
        (fun (family, pmf) ->
          let r = measure_learned ~seed ~family ~pmf ~n ~k ~eps in
          Exp_common.row
            "%-9s | %7d | %3d | %6d | %9.2f | %8.0f | %8.0f | %9.1f | %5b@."
            r.family r.n r.lk r.lcells r.warm_ms r.warm_minor r.warm_major
            r.ldense_ms r.lexact;
          r)
        [
          ("staircase", Exp_common.yes_instance ~n ~k ~seed);
          ("comb", Exp_common.no_instance ~n ~k);
        ])
    grid

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E18 (closest-H_k DP: dense vs divide & conquer)"
    ~claim:
      "The Monge divide-and-conquer DP over the O(log K) rank-index \
       oracle matches the dense K^2 reference bit for bit while scaling \
       as K log K in time and memory; on learned (non-monotone) cells the \
       row scan matches it too, pricing each segment once for all k \
       layers.";
  let sizes =
    if mode.Exp_common.quick then [ 256; 512; 1024; 2048 ]
    else [ 256; 512; 1024; 2048; 4096; 8192 ]
  in
  let ks = [ 2; 8; 32 ] in
  Exp_common.row
    "%6s | %3s | %9s | %8s | %9s | %9s | %7s | %8s | %8s | %5s@." "K" "k"
    "build (s)" "query ns" "d&c (s)" "dense (s)" "speedup" "d&c MB"
    "dense MB" "exact";
  Exp_common.hline ();
  let rows =
    List.concat_map
      (fun cells ->
        List.map
          (fun k ->
            let r = measure ~seed:mode.Exp_common.seed ~cells ~k in
            let speedup = r.t_dense /. Float.max 1e-9 r.t_fast in
            Exp_common.row
              "%6d | %3d | %9.5f | %8.1f | %9.4f | %9.3f | %6.1fx | %8.2f \
               | %8.1f | %5b@."
              r.cells r.k r.t_build r.query_ns r.t_fast r.t_dense speedup
              r.fast_mb r.dense_mb r.exact;
            if not r.exact then
              Exp_common.row
                "WARNING: K=%d k=%d — D&C and dense paths disagree!@."
                r.cells r.k;
            r)
          ks)
      sizes
  in
  let learned = learned_rows mode in
  let all_exact =
    List.for_all (fun r -> r.exact) rows
    && List.for_all (fun r -> r.lexact) learned
  in
  let json =
    Printf.sprintf
      "{\"bench\":\"e18_closest\",\"seed\":%d,\"quick\":%b,\
       \"nproc\":%d,\"all_exact\":%b,\"rows\":[%s],\"learned\":[%s]}"
      mode.Exp_common.seed mode.Exp_common.quick (Exp_common.nproc ()) all_exact
      (String.concat ","
         (List.map
            (fun r ->
              Printf.sprintf
                "{\"cells\":%d,\"k\":%d,\"t_build\":%.6f,\
                 \"query_ns\":%.1f,\"t_dp\":%s,\"t_fast\":%.6f,\
                 \"t_dense\":%.6f,\"speedup\":%.2f,\"fast_mb\":%.2f,\
                 \"dense_mb\":%.1f,\"exact_match\":%b}"
                r.cells r.k r.t_build r.query_ns
                (* Two separately timed calls can still invert on a busy
                   host: no figure then, rather than a clamped 0. *)
                (let dp = r.t_fast -. r.t_build in
                 if dp < 0. then "null" else Printf.sprintf "%.6f" dp)
                r.t_fast r.t_dense
                (r.t_dense /. Float.max 1e-9 r.t_fast)
                r.fast_mb r.dense_mb r.exact)
            rows))
      (String.concat ","
         (List.map
            (fun r ->
              Printf.sprintf
                "{\"family\":\"%s\",\"n\":%d,\"k\":%d,\"cells\":%d,\
                 \"warm_ms\":%.3f,\"warm_minor_words\":%.0f,\
                 \"warm_major_words\":%.0f,\"dense_ms\":%.3f,\
                 \"exact_match\":%b}"
                r.family r.n r.lk r.lcells r.warm_ms r.warm_minor r.warm_major
                r.ldense_ms r.lexact)
            learned))
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 bench_file
  in
  output_string oc (json ^ "\n");
  close_out oc;
  Exp_common.row "@.%s@." json;
  Exp_common.row "(appended to %s)@." bench_file;
  Exp_common.row
    "@.Expected shape: dense grows ~K^2 in time and exactly K^2 in@.";
  Exp_common.row
    "memory; the d&c column grows ~K log^2 K with O(K log K) allocation;@.";
  Exp_common.row "exact on every row.@.";
  (* CI runs this in quick mode as a bit-exactness gate: a fast/dense
     disagreement is a correctness bug, not a perf regression. *)
  if not all_exact then exit 1

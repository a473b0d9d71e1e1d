module H = Histotest

let rng () = Randkit.Rng.create ~seed:99
let oracle_of ?(seed = 11) pmf =
  Refkit.Stream_trials.of_alias (Randkit.Rng.create ~seed) (Alias.of_pmf pmf)

(* --- Config --- *)

let test_config_profiles () =
  Alcotest.(check (float 0.)) "paper test constant" 20000.
    H.Config.paper.H.Config.c_test;
  Alcotest.(check (float 1e-12)) "paper eps fraction" (13. /. 30.)
    H.Config.paper.H.Config.test_eps_frac;
  Alcotest.(check (float 0.)) "practical test constant" 60.
    H.Config.default.H.Config.c_test

let test_config_scalings () =
  let c = H.Config.default in
  let m1 = H.Config.test_samples c ~n:1024 ~eps:0.25 in
  let m2 = H.Config.test_samples c ~n:4096 ~eps:0.25 in
  (* sqrt scaling: 4x the domain = 2x the samples. *)
  Alcotest.(check bool) "sqrt n scaling" true
    (Float.abs ((float_of_int m2 /. float_of_int m1) -. 2.) < 0.01);
  let m3 = H.Config.test_samples c ~n:1024 ~eps:0.125 in
  Alcotest.(check bool) "1/eps^2 scaling" true
    (Float.abs ((float_of_int m3 /. float_of_int m1) -. 4.) < 0.01)

let test_config_scale_budget () =
  let c = H.Config.scale_budget H.Config.default 0.5 in
  Alcotest.(check (float 1e-12)) "halved" (60. *. 0.5) c.H.Config.c_test;
  Alcotest.(check bool) "invalid" true
    (try
       ignore (H.Config.scale_budget c 0.);
       false
     with Invalid_argument _ -> true)

let test_log2i () =
  Alcotest.(check int) "1" 1 (H.Config.log2i 1);
  Alcotest.(check int) "2" 1 (H.Config.log2i 2);
  Alcotest.(check int) "5" 3 (H.Config.log2i 5);
  Alcotest.(check int) "1024" 10 (H.Config.log2i 1024)

let test_sieve_reps_cap () =
  Alcotest.(check bool) "practical capped" true
    (H.Config.sieve_reps H.Config.default ~k:64
    <= H.Config.default.H.Config.sieve_reps_cap);
  Alcotest.(check bool) "paper uncapped grows" true
    (H.Config.sieve_reps H.Config.paper ~k:64
    > H.Config.sieve_reps H.Config.default ~k:64)

(* --- Approx_part --- *)

let test_approx_part_heavy_isolated () =
  (* A 0.3-mass atom must become a singleton cell for any b >= 4. *)
  let n = 256 in
  let w = Array.make n (0.7 /. 255.) in
  w.(100) <- 0.3;
  let p = Pmf.of_weights w in
  let res = H.Approx_part.run (oracle_of p) ~b:20 in
  let part = res.H.Approx_part.partition in
  let j = Partition.find part 100 in
  Alcotest.(check bool) "singleton" true
    (Interval.is_singleton (Partition.cell part j));
  Alcotest.(check bool) "flagged heavy" true res.H.Approx_part.heavy.(j)

let test_approx_part_heavy_flags_spiky () =
  (* 40 atoms of mass 1/80 among light elements: the heavy flags are
     exactly the singleton cells whose element's empirical frequency
     reaches 3/(4b), recomputed from a twin oracle's identical draw. *)
  let n = 2048 and b = 128 in
  let w = Array.make n (0.5 /. float_of_int (n - 40)) in
  for a = 0 to 39 do
    w.(7 + (a * 50)) <- 0.5 /. 40.
  done;
  let p = Pmf.of_weights w in
  let res = H.Approx_part.run (oracle_of p) ~b in
  let m = H.Config.part_samples H.Config.default ~b in
  let counts = (oracle_of p).Poissonize.exact m in
  let part = res.H.Approx_part.partition in
  let flagged = ref 0 in
  Partition.iteri
    (fun j cell ->
      let lo = Interval.lo cell in
      let want =
        Interval.is_singleton cell
        && float_of_int counts.(lo) /. float_of_int m
           >= 0.75 /. float_of_int b
      in
      if want then incr flagged;
      Alcotest.(check bool)
        (Printf.sprintf "cell %d" j)
        want res.H.Approx_part.heavy.(j))
    part;
  Alcotest.(check bool) "atoms flagged" true (!flagged >= 40)

let test_approx_part_weights_bounded () =
  let n = 512 in
  let p = Pmf.uniform n in
  let b = 30 in
  let res = H.Approx_part.run (oracle_of p) ~b in
  let part = res.H.Approx_part.partition in
  Alcotest.(check bool)
    (Printf.sprintf "cell count %d vs bound" (Partition.cell_count part))
    true
    (Partition.cell_count part <= (4 * b) + 2);
  (* All but a few trailing/pre-heavy cells carry mass in [1/2b, 2/b]. *)
  let ok = ref 0 and total = ref 0 in
  Partition.iteri
    (fun _ cell ->
      incr total;
      let mass = Pmf.mass_on p cell in
      if mass >= 0.5 /. float_of_int b && mass <= 2. /. float_of_int b then
        incr ok)
    part;
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d in band" !ok !total)
    true
    (!total - !ok <= 2)

let test_approx_part_invalid () =
  Alcotest.(check bool) "b = 0" true
    (try
       ignore (H.Approx_part.run (oracle_of (Pmf.uniform 8)) ~b:0);
       false
     with Invalid_argument _ -> true)

(* --- Learner --- *)

let test_learner_positive_and_normalized () =
  let n = 256 in
  let p = Families.zipf ~n ~s:1. in
  let part = Partition.equal_width ~n ~cells:16 in
  let res = H.Learner.run (oracle_of p) ~part ~eps:0.25 in
  let dhat = res.H.Learner.estimate in
  Alcotest.(check bool) "strictly positive" true
    (Array.for_all (fun x -> x > 0.) (Pmf.to_array dhat));
  Alcotest.(check int) "histogram cells" 16 (Khist.pieces res.H.Learner.histogram)

let test_learner_chi2_guarantee_off_breakpoints () =
  (* D in H_4 aligned except inside a few cells: off the breakpoint cells,
     the learned chi^2 divergence must be far below eps_learn^2. *)
  let n = 512 in
  let r = rng () in
  let d = Families.staircase ~n ~k:4 ~rng:r in
  let part = Partition.equal_width ~n ~cells:32 in
  let res = H.Learner.run (oracle_of d) ~part ~eps:0.25 in
  let breakpoint_cells = Khist.breakpoint_cells d part in
  let keep = Array.map not breakpoint_cells in
  let mask = Partition.restrict_mask part ~keep in
  let chi2 = Distance.chi2_mask mask d ~against:res.H.Learner.estimate in
  (* eps_learn = 0.25/12; guarantee is eps_learn^2 = 4.3e-4. *)
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2e" chi2)
    true (chi2 < 4.5e-4)

(* --- Adk15 --- *)

let test_adk15_accepts_identity () =
  let n = 512 in
  let p = Families.zipf ~n ~s:1. in
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out = H.Adk15.run (oracle_of ~seed p) ~dstar:p ~eps:0.25 in
    if out.H.Adk15.verdict <> Verdict.Accept then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_adk15_rejects_far () =
  let n = 512 in
  let dstar = Pmf.uniform n in
  let far = Families.comb ~n ~teeth:32 in
  (* tv(comb, uniform) = 0.25 per construction (3/4 vs 1/4 levels). *)
  Alcotest.(check bool) "far enough" true (Distance.tv far dstar >= 0.2);
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out = H.Adk15.run (oracle_of ~seed far) ~dstar ~eps:0.2 in
    if out.H.Adk15.verdict <> Verdict.Reject then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_adk15_masked_ignores_bad_region () =
  (* D differs from D* only on the second half; masking it out must yield
     acceptance. *)
  let n = 256 in
  let dstar = Pmf.uniform n in
  let w = Array.make n 1. in
  for i = n / 2 to n - 1 do
    w.(i) <- (if i mod 2 = 0 then 1.8 else 0.2)
  done;
  let d = Pmf.of_weights w in
  let part = Partition.of_breakpoints ~n [ n / 2 ] in
  let mask = [| true; false |] in
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out =
      H.Adk15.run ~cell_mask:mask ~part (oracle_of ~seed d) ~dstar ~eps:0.25
    in
    if out.H.Adk15.verdict <> Verdict.Accept then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1);
  (* Unmasked, the same instance is rejected. *)
  let out = H.Adk15.run (oracle_of d) ~dstar ~eps:0.25 in
  Alcotest.(check bool) "unmasked rejects" true
    (out.H.Adk15.verdict = Verdict.Reject)

(* --- Sieve --- *)

let planted_instance n =
  (* Uniform except two contaminated cells of a 16-cell partition. *)
  let part = Partition.equal_width ~n ~cells:16 in
  let w = Array.make n 1. in
  let poison cell_idx =
    let cell = Partition.cell part cell_idx in
    Interval.iter
      (fun i -> w.(i) <- (if (i - Interval.lo cell) mod 2 = 0 then 2.4 else 0.4))
      cell
  in
  poison 3;
  poison 11;
  (Pmf.of_weights w, part)

let test_sieve_removes_planted_cells () =
  let n = 512 in
  let d, part = planted_instance n in
  (* The hypothesis is the flattened version: perfect on clean cells. *)
  let dhat = Ops.flatten d part in
  let eligible = Array.make 16 true in
  let res =
    H.Sieve.run (oracle_of d) ~dhat ~part ~eligible ~k:4 ~eps:0.25
  in
  Alcotest.(check bool) "sieve completes" true
    (res.H.Sieve.verdict = Verdict.Accept);
  Alcotest.(check bool) "cell 3 removed" true (not res.H.Sieve.kept.(3));
  Alcotest.(check bool) "cell 11 removed" true (not res.H.Sieve.kept.(11));
  let removed = res.H.Sieve.removed_count in
  Alcotest.(check bool)
    (Printf.sprintf "removed %d within budget" removed)
    true
    (removed <= H.Config.sieve_budget H.Config.default ~k:4)

let test_sieve_clean_removes_nothing () =
  let n = 512 in
  let d = Pmf.uniform n in
  let part = Partition.equal_width ~n ~cells:16 in
  let dhat = Ops.flatten d part in
  let eligible = Array.make 16 true in
  let res = H.Sieve.run (oracle_of d) ~dhat ~part ~eligible ~k:4 ~eps:0.25 in
  Alcotest.(check bool) "completes" true (res.H.Sieve.verdict = Verdict.Accept);
  Alcotest.(check int) "nothing removed" 0 res.H.Sieve.removed_count;
  Alcotest.(check bool) "stopped in round 1" true
    (match res.H.Sieve.log with
    | first :: _ -> first.H.Sieve.stopped
    | [] -> false)

let test_sieve_budget_rejection () =
  (* Contamination everywhere: the sieve cannot fit the removals in its
     k log k budget and must reject. *)
  let n = 512 in
  let d = Families.paninski ~n ~eps:0.2 ~c:4. ~rng:(rng ()) in
  let part = Partition.equal_width ~n ~cells:64 in
  let dhat = Ops.flatten d part in
  let eligible = Array.make 64 true in
  let res = H.Sieve.run (oracle_of d) ~dhat ~part ~eligible ~k:2 ~eps:0.25 in
  Alcotest.(check bool) "rejects" true (res.H.Sieve.verdict = Verdict.Reject)

let test_sieve_respects_eligibility () =
  let n = 512 in
  let d, part = planted_instance n in
  let dhat = Ops.flatten d part in
  let eligible = Array.make 16 true in
  eligible.(3) <- false;
  let res = H.Sieve.run (oracle_of d) ~dhat ~part ~eligible ~k:4 ~eps:0.25 in
  Alcotest.(check bool) "ineligible cell kept" true res.H.Sieve.kept.(3)

(* --- Hist_tester (Algorithm 1) --- *)

let majority_verdict ~trials f =
  let accepts = ref 0 in
  for seed = 0 to trials - 1 do
    if f seed = Verdict.Accept then incr accepts
  done;
  if 2 * !accepts > trials then Verdict.Accept else Verdict.Reject

let test_algorithm1_completeness () =
  let n = 512 in
  let d = Families.staircase ~n ~k:4 ~rng:(rng ()) in
  let v =
    majority_verdict ~trials:5 (fun seed ->
        H.Hist_tester.test (oracle_of ~seed d) ~k:4 ~eps:0.3)
  in
  Alcotest.(check bool) "accepts member" true (v = Verdict.Accept)

let test_algorithm1_soundness () =
  let n = 512 in
  let d = Families.comb ~n ~teeth:16 in
  Alcotest.(check bool) "instance is far" true
    (Closest.tv_to_hk d ~k:4 >= 0.2);
  let v =
    majority_verdict ~trials:5 (fun seed ->
        H.Hist_tester.test (oracle_of ~seed d) ~k:4 ~eps:0.2)
  in
  Alcotest.(check bool) "rejects far" true (v = Verdict.Reject)

let test_algorithm1_uniform_k1 () =
  let n = 512 in
  let v =
    majority_verdict ~trials:5 (fun seed ->
        H.Hist_tester.test (oracle_of ~seed (Pmf.uniform n)) ~k:1 ~eps:0.3)
  in
  Alcotest.(check bool) "uniform is a 1-histogram" true (v = Verdict.Accept)

let test_algorithm1_report_fields () =
  let n = 256 in
  let d = Families.staircase ~n ~k:2 ~rng:(rng ()) in
  let r = H.Hist_tester.run (oracle_of d) ~k:2 ~eps:0.3 in
  Alcotest.(check bool) "samples counted" true (r.H.Hist_tester.samples_used > 0);
  Alcotest.(check bool) "cells recorded" true (r.H.Hist_tester.cells > 0);
  Alcotest.(check bool) "sieve present" true (r.H.Hist_tester.sieve <> None)

(* Reports pinned bit for bit: verdict, deciding stage, samples, cells
   and the bits of check_distance and of the final Z, on fixed seeds over
   both oracles and all three deciding stages.  The values are those of
   the dense composition (D-hat expanded into n floats, G into an n-point
   mask), which the per-cell path must reproduce exactly. *)
let report_digest (r : H.Hist_tester.report) =
  let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  Printf.sprintf "%s@%s s=%d K=%d d=%s z=%s"
    (Verdict.to_string r.H.Hist_tester.verdict)
    (H.Hist_tester.stage_to_string r.H.Hist_tester.decided_at)
    r.H.Hist_tester.samples_used r.H.Hist_tester.cells
    (match r.H.Hist_tester.check_distance with None -> "-" | Some d -> bits d)
    (match r.H.Hist_tester.final with
    | None -> "-"
    | Some f -> bits f.H.Adk15.statistic.Chi2stat.z)

let test_algorithm1_pinned_reports () =
  let n = 1024 and seed = 1 in
  List.iter
    (fun (spec, oracle, k, eps, want) ->
      let d =
        match Families.of_spec ~n ~rng:(Randkit.Rng.create ~seed:7) spec with
        | Ok d -> d
        | Error e -> failwith e
      in
      let r =
        match oracle with
        | `Stream -> H.Hist_tester.run (oracle_of ~seed d) ~k ~eps
        | `Counts ->
            let ws = Workspace.create () in
            H.Hist_tester.run ~ws
              (Poissonize.counts_of_tree_ws ws (Randkit.Rng.create ~seed)
                 (Split_tree.of_pmf d))
              ~k ~eps
      in
      Alcotest.(check string) (Printf.sprintf "%s k=%d" spec k) want
        (report_digest r))
    [
      ( "staircase:4", `Stream, 4, 0.3,
        "accept@testing s=4806823 K=502 d=3f7e243044ec55e0 z=40265226eadc4389" );
      ( "staircase:4", `Counts, 4, 0.3,
        "accept@testing s=4806823 K=502 d=3f80350acd5cac88 z=406f5800a855c2fa" );
      ( "staircase:4", `Counts, 2, 0.5,
        "reject@checking s=2298146 K=76 d=3fb4e502a022093f z=-" );
      ("comb:8", `Stream, 2, 0.5, "reject@sieving s=1192709 K=75 d=- z=-");
      ( "uniform", `Counts, 2, 0.5,
        "accept@testing s=1234761 K=76 d=3f8426facd711420 z=c007e536c889bb3a" );
      ( "zipf:1.0", `Stream, 4, 0.3,
        "reject@checking s=3858013 K=241 d=3fc9758d6ffc45ce z=-" );
      ( "spiked:3", `Counts, 2, 0.5,
        "reject@checking s=1156997 K=44 d=3fd06c4603e58596 z=-" );
      ( "khist:3", `Stream, 4, 0.3,
        "accept@testing s=4608423 K=440 d=3f7bf8cad55c56d0 z=406343d66a943373" );
    ]

(* A warm trial allocates little beyond its report: every stage keeps its
   cell-sized arrays in the workspace, the counts oracle draws without
   boxing, and the checking DP runs in the workspace's scratch.  At
   n = 2^16 (K ~ 625) a warm trial puts 1250-1254 words straight into the
   major heap (the partition's cell array and the sieve's [kept] mask)
   and ~310-580 words into the minor heap, on a staircase (accepted at
   testing) and on a comb (rejected at checking), in the dev and release
   profiles alike.  The thunk ends with a minor collection, so what the
   trial leaves live shows as promoted words: ~70-130, the report.  When
   a cell was a boxed record, each store of a young cell into the
   major-heap cell array left a remembered-set entry, and that collection
   promoted the whole partition: ~1.95-2.0 k promoted and ~2.2-2.5 k minor
   words a trial.  Handing the split probability across the library
   boundary boxed (2 words a node) reads ~782 k minor and ~3.4 k major
   words a trial; before every stage kept its K-sized arrays in the
   workspace, a trial read 2.38 M minor and ~17 k major words.  Two trials
   warm the workspace up: its cell-sized buffers double whenever K passes
   their capacity. *)
let test_algorithm1_no_domain_arrays () =
  let n = 1 lsl 16 in
  let staircase =
    Split_tree.of_pmf
      (Families.staircase ~n ~k:4 ~rng:(Randkit.Rng.create ~seed:1))
  in
  let comb = Split_tree.of_pmf (Families.comb ~n ~teeth:8) in
  let ws = Workspace.create () in
  let trial tree seed =
    H.Hist_tester.run ~ws
      (Poissonize.counts_of_tree_ws ws (Randkit.Rng.create ~seed) tree)
      ~k:4 ~eps:0.25
  in
  List.iter
    (fun seed -> ignore (trial staircase seed : H.Hist_tester.report))
    [ 1; 2 ];
  List.iter
    (fun (name, tree, seed, stage) ->
      let r, { Refkit.Alloc.minor; promoted; direct_major } =
        Refkit.Alloc.measure (fun () ->
            let r = trial tree seed in
            Gc.minor ();
            r)
      in
      Alcotest.(check string)
        (name ^ " decided at")
        stage
        (H.Hist_tester.stage_to_string r.H.Hist_tester.decided_at);
      if direct_major > 2_000. || minor > 1_500. || promoted > 400. then
        Alcotest.failf
          "a warm %s trial allocated %.0f minor, %.0f promoted and %.0f \
           direct major words (want <= 1500, <= 400 and <= 2000)"
          name minor promoted direct_major)
    [
      ("staircase", staircase, 3, "testing");
      ("comb", comb, 4, "checking");
      ("staircase", staircase, 5, "testing");
      ("comb", comb, 6, "checking");
    ];
  (* The trials ran their DP in the workspace's scratch, so a smaller fit
     there is warm: it allocates only its answer.  A scratch the trials
     never used would first allocate its tables (a few words of heap per
     off-heap Bigarray, 14 of them), which the bound above cannot see. *)
  let cells =
    Closest.cells_of_pmf
      (Families.staircase ~n:64 ~k:3 ~rng:(Randkit.Rng.create ~seed:2))
  in
  let scratch = Workspace.closest ws in
  let _, { Refkit.Alloc.minor; direct_major; _ } =
    Refkit.Alloc.measure (fun () -> Closest.fit_cells ~scratch cells ~k:2)
  in
  if minor +. direct_major > 22. then
    Alcotest.failf
      "a fit in the trials' scratch allocated %.0f words (want <= 22: the \
       trials did not run their DP there)"
      (minor +. direct_major)

(* The dense adapters Sieve.run and Adk15.run, given D-hat's expansion,
   agree with the per-cell entry points Algorithm 1 runs, on twin
   oracles. *)
let test_dense_adapters_match_khist () =
  let n = 2048 and k = 4 and eps = 0.3 in
  let d = Families.staircase ~n ~k ~rng:(rng ()) in
  List.iter
    (fun seed ->
      let o () = oracle_of ~seed d in
      let b = H.Config.part_b H.Config.default ~k ~eps in
      let part = (H.Approx_part.run (o ()) ~b).H.Approx_part.partition in
      let learned = H.Learner.run (o ()) ~part ~eps in
      let dense = learned.H.Learner.estimate in
      let dhat = learned.H.Learner.histogram in
      let eligible = Array.make (Partition.cell_count part) true in
      let config = H.Config.default in
      let s1 = H.Sieve.run (o ()) ~dhat:dense ~part ~eligible ~k ~eps in
      let s2 =
        H.Sieve.run_khist ~config (Workspace.create ()) (o ()) ~dhat ~eligible
          ~k ~eps
      in
      Alcotest.(check bool) "sieve results" true (s1 = s2);
      let cell_mask = s1.H.Sieve.kept in
      let a1 = H.Adk15.run ~cell_mask ~part (o ()) ~dstar:dense ~eps in
      let a2 = H.Adk15.run_khist ~config ~cell_mask (o ()) ~dstar:dhat ~eps in
      Alcotest.(check bool) "adk15 outcomes" true (a1 = a2))
    [ 1; 2; 3 ]

let test_algorithm1_invalid_args () =
  let o = oracle_of (Pmf.uniform 16) in
  Alcotest.(check bool) "k = 0" true
    (try
       ignore (H.Hist_tester.run o ~k:0 ~eps:0.1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "eps = 0" true
    (try
       ignore (H.Hist_tester.run o ~k:1 ~eps:0.);
       false
     with Invalid_argument _ -> true)

let test_algorithm1_plan_positive () =
  let m = H.Hist_tester.plan ~n:4096 ~k:4 ~eps:0.25 () in
  Alcotest.(check bool) "positive" true (m > 0);
  (* Planned budget grows with n. *)
  Alcotest.(check bool) "monotone in n" true
    (H.Hist_tester.plan ~n:16384 ~k:4 ~eps:0.25 () > m)

(* --- Uniformity --- *)

let test_uniformity_accepts_uniform () =
  let n = 1024 in
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out = H.Uniformity.run (oracle_of ~seed (Pmf.uniform n)) ~eps:0.25 in
    if out.H.Uniformity.verdict <> Verdict.Accept then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_uniformity_rejects_far () =
  let n = 1024 in
  let far = Families.paninski ~n ~eps:0.25 ~c:3. ~rng:(rng ()) in
  (* tv from uniform = c*eps/2 = 0.375. *)
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out = H.Uniformity.run (oracle_of ~seed far) ~eps:0.3 in
    if out.H.Uniformity.verdict <> Verdict.Reject then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_collision_count () =
  Alcotest.(check int) "pairs" (3 + 1) (H.Uniformity.collision_count [| 3; 2; 1 |])

(* --- Identity --- *)

let test_identity_l2 () =
  let n = 512 in
  let p = Families.zipf ~n ~s:1. in
  let v_same, _, _, _ = H.Identity.l2_run (oracle_of p) ~dstar:p ~eps:0.25 in
  Alcotest.(check bool) "same accepts" true (v_same = Verdict.Accept);
  let far = Families.comb ~n ~teeth:32 in
  let v_far, _, _, _ =
    H.Identity.l2_run (oracle_of far) ~dstar:(Pmf.uniform n) ~eps:0.2
  in
  Alcotest.(check bool) "far rejects" true (v_far = Verdict.Reject)

(* --- Baselines --- *)

let test_learn_then_test_completeness () =
  let n = 512 in
  let d = Families.staircase ~n ~k:4 ~rng:(rng ()) in
  let v =
    majority_verdict ~trials:5 (fun seed ->
        H.Learn_then_test.test (oracle_of ~seed d) ~k:4 ~eps:0.3)
  in
  Alcotest.(check bool) "accepts member" true (v = Verdict.Accept)

let test_learn_then_test_soundness () =
  let n = 512 in
  let d = Families.comb ~n ~teeth:32 in
  let v =
    majority_verdict ~trials:5 (fun seed ->
        H.Learn_then_test.test (oracle_of ~seed d) ~k:4 ~eps:0.2)
  in
  Alcotest.(check bool) "rejects far" true (v = Verdict.Reject)

let test_ilr12_completeness () =
  let n = 512 in
  let d = Families.staircase ~n ~k:4 ~rng:(rng ()) in
  let v =
    majority_verdict ~trials:5 (fun seed ->
        H.Ilr12.test (oracle_of ~seed d) ~k:4 ~eps:0.3)
  in
  Alcotest.(check bool) "accepts member" true (v = Verdict.Accept)

let test_ilr12_soundness () =
  let n = 512 in
  (* Locally rough target: needs many flat pieces at every scale. *)
  let d = Families.comb ~n ~teeth:64 in
  let v =
    majority_verdict ~trials:5 (fun seed ->
        H.Ilr12.test (oracle_of ~seed d) ~k:2 ~eps:0.25)
  in
  Alcotest.(check bool) "rejects far" true (v = Verdict.Reject)

let test_tester_facade () =
  let testers = H.Tester.all () in
  Alcotest.(check int) "three testers" 3 (List.length testers);
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (t.H.Tester.name ^ " budget positive")
        true
        (t.H.Tester.budget ~n:1024 ~k:4 ~eps:0.25 > 0))
    testers

(* --- Model selection --- *)

let test_model_select_finds_k () =
  let n = 512 in
  (* A well-separated 4-staircase (level ratio 5:1): merging any adjacent
     pair of quarters costs 1/6 in TV, so H_3 is > 0.15 away. *)
  let d =
    Pmf.of_weights
      (Array.init n (fun i ->
           if i / (n / 4) mod 2 = 0 then 5. else 1.))
  in
  Alcotest.(check bool) "4 pieces exactly" true (Khist.pieces_of_pmf d = 4);
  Alcotest.(check bool) "far from H_3" true (Closest.tv_to_hk d ~k:3 > 0.15);
  let result =
    H.Model_select.run
      ~make_oracle:(fun () ->
        Refkit.Stream_trials.of_alias (Randkit.Rng.split (rng ()))
          (Alias.of_pmf d))
      ~k_max:64 ~eps:0.15 ()
  in
  match result.H.Model_select.k_hat with
  | None -> Alcotest.fail "model selection found nothing"
  | Some k ->
      Alcotest.(check bool)
        (Printf.sprintf "k_hat = %d in [4, 8]" k)
        true
        (k >= 4 && k <= 8)

(* --- Lower bounds --- *)

let test_supp_size_instances () =
  let r = rng () in
  let k = 21 in
  let n = 2100 in
  let (small, s_small), (large, s_large), m =
    H.Lowerbound.supp_size_pair ~k ~n ~rng:r
  in
  Alcotest.(check int) "m" (H.Lowerbound.supp_size_m ~k) m;
  Alcotest.(check bool) "small side support" true (s_small <= (2 * m / 3) + 1);
  Alcotest.(check bool) "large side support" true (s_large >= 7 * m / 8);
  Alcotest.(check int) "small support realized" s_small (Pmf.support_size small);
  Alcotest.(check int) "large support realized" s_large (Pmf.support_size large);
  (* Promise: nonzero masses at least 1/m. *)
  Alcotest.(check bool) "promise small" true
    (Array.for_all
       (fun x -> x = 0. || x >= 1. /. float_of_int m)
       (Pmf.to_array small));
  (* A support of size s has cover <= s, so the small side is always a
     (2s+1)-histogram. *)
  Alcotest.(check bool) "small side histogram pieces" true
    (Khist.pieces_of_pmf small <= (2 * s_small) + 1);
  (* The m <-> k pairing guarantees the small side is in H_k outright. *)
  Alcotest.(check (float 1e-12)) "small side is in H_k" 0.
    (Closest.tv_to_hk small ~k)

let test_supp_size_large_cover () =
  (* Lemma 4.4: with probability >= 9/10 the permuted large support keeps
     cover >= 6l/7.  Check it holds in at least 8 of 10 draws. *)
  let r = rng () in
  let k = 21 in
  let n = 2100 in
  let m = H.Lowerbound.supp_size_m ~k in
  let hits = ref 0 in
  for _ = 1 to 10 do
    let large, s = H.Lowerbound.supp_size_instance ~side:H.Lowerbound.Large ~m ~n ~rng:r in
    if H.Lowerbound.cover_of_support large >= 6 * s / 7 then incr hits
  done;
  Alcotest.(check bool) (Printf.sprintf "cover ok %d/10" !hits) true (!hits >= 8)

let test_supp_size_large_is_far () =
  let r = rng () in
  let k = 33 in
  let n = 400 in
  let m = H.Lowerbound.supp_size_m ~k in
  let large, _ =
    H.Lowerbound.supp_size_instance ~side:H.Lowerbound.Large ~m ~n ~rng:r
  in
  Alcotest.(check bool)
    (Printf.sprintf "distance %.4f" (Closest.tv_to_hk large ~k))
    true
    (Closest.tv_to_hk large ~k > 0.01)

let test_paninski_far_from_hk () =
  let r = rng () in
  let n = 600 in
  let q = H.Lowerbound.paninski_instance ~n ~eps:0.1 ~rng:r () in
  (* Guarantee: >= c*eps/6 = 0.1 far from H_k for k < n/3. *)
  Alcotest.(check bool) "far from H_10" true
    (Closest.tv_to_hk q ~k:10 >= 0.09)

let test_eps_embedded () =
  let p = Pmf.uniform 10 in
  let q = H.Lowerbound.eps_embedded p ~eps:0.01 ~eps1:(1. /. 24.) in
  Alcotest.(check int) "one extra element" 11 (Pmf.size q);
  Alcotest.(check (float 1e-9)) "heavy element mass" (1. -. (0.01 *. 24.))
    (Pmf.get q 10);
  Alcotest.(check bool) "invalid eps" true
    (try
       ignore (H.Lowerbound.eps_embedded p ~eps:0.5 ~eps1:0.04);
       false
     with Invalid_argument _ -> true)

(* --- Modal test --- *)

let test_modal_tester () =
  let r = rng () in
  let n = 96 in
  let good = Modal.random_kmodal ~n ~k:2 ~rng:r in
  let rep = H.Modal_test.run (oracle_of good) ~k:2 ~eps:0.3 in
  Alcotest.(check bool) "accepts 2-modal" true
    (rep.H.Modal_test.verdict = Verdict.Accept);
  let bad = Families.comb ~n ~teeth:24 in
  let rep2 = H.Modal_test.run (oracle_of bad) ~k:2 ~eps:0.3 in
  Alcotest.(check bool) "rejects zigzag" true
    (rep2.H.Modal_test.verdict = Verdict.Reject)


(* --- Closeness (CDVV14 extension) --- *)

let test_closeness_same () =
  let n = 512 in
  let p = Families.zipf ~n ~s:1. in
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let o1 = oracle_of ~seed p in
    let o2 = oracle_of ~seed:(seed + 100) p in
    let out = H.Closeness.run o1 o2 ~eps:0.25 in
    if out.H.Closeness.verdict <> Verdict.Accept then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_closeness_far () =
  let n = 512 in
  let p = Pmf.uniform n in
  let q = Families.comb ~n ~teeth:32 in
  Alcotest.(check bool) "pair is far" true (Distance.tv p q >= 0.2);
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out =
      H.Closeness.run (oracle_of ~seed p) (oracle_of ~seed:(seed + 50) q)
        ~eps:0.2
    in
    if out.H.Closeness.verdict <> Verdict.Reject then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_closeness_statistic_null_mean () =
  (* Under D1 = D2 the statistic is centered. *)
  let n = 64 in
  let p = Families.zipf ~n ~s:0.7 in
  let o1 = oracle_of ~seed:3 p and o2 = oracle_of ~seed:4 p in
  let zs =
    Array.init 200 (fun _ ->
        H.Closeness.statistic
          ~x:(o1.Poissonize.poissonized 2000.)
          ~y:(o2.Poissonize.poissonized 2000.))
  in
  let s = Numkit.Summary.of_array zs in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f, sd %.2f" (Numkit.Summary.mean s)
       (Numkit.Summary.stddev s))
    true
    (Float.abs (Numkit.Summary.mean s)
    <= 4. *. Numkit.Summary.stddev s /. sqrt 200.)

let test_closeness_mismatched_domains () =
  Alcotest.(check bool) "domain check" true
    (try
       ignore
         (H.Closeness.run
            (oracle_of (Pmf.uniform 8))
            (oracle_of (Pmf.uniform 16))
            ~eps:0.3);
       false
     with Invalid_argument _ -> true)

(* --- Structured_identity (DKN15 extension) --- *)

let test_structured_reduction_partition () =
  let n = 1024 in
  let dstar = Families.staircase ~n ~k:4 ~rng:(rng ()) in
  let part = H.Structured_identity.reduction_partition ~dstar ~k:4 ~eps:0.25 in
  let cap = 0.25 /. (8. *. 4.) in
  Partition.iteri
    (fun _ cell ->
      (* Integer-length splitting can overshoot by up to one element. *)
      let slack = Pmf.get dstar (Interval.lo cell) in
      Alcotest.(check bool) "cell mass capped" true
        (Pmf.mass_on dstar cell <= cap +. slack +. 1e-9))
    part;
  (* Every piece boundary of D* is a cell boundary. *)
  let breaks = Partition.breakpoints part in
  List.iter
    (fun b ->
      Alcotest.(check bool) "piece boundary preserved" true (List.mem b breaks))
    (Khist.breakpoints_of_pmf dstar)

let test_structured_identity_accepts () =
  let n = 4096 in
  let dstar = Families.staircase ~n ~k:4 ~rng:(rng ()) in
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out =
      H.Structured_identity.run (oracle_of ~seed dstar) ~dstar ~k:4 ~eps:0.25
    in
    if out.H.Structured_identity.verdict <> Verdict.Accept then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_structured_identity_rejects_far_khist () =
  (* D is itself a k-histogram (the promise) but far from D*. *)
  let n = 4096 in
  let rng0 = rng () in
  let dstar = Families.staircase ~n ~k:4 ~rng:rng0 in
  let other =
    Pmf.of_weights
      (Array.init n (fun i -> if i / (n / 4) mod 2 = 0 then 5. else 1.))
  in
  Alcotest.(check bool) "far pair" true (Distance.tv dstar other >= 0.2);
  let wrong = ref 0 in
  for seed = 0 to 9 do
    let out =
      H.Structured_identity.run (oracle_of ~seed other) ~dstar ~k:4 ~eps:0.2
    in
    if out.H.Structured_identity.verdict <> Verdict.Reject then incr wrong
  done;
  Alcotest.(check bool) (Printf.sprintf "wrong %d/10" !wrong) true (!wrong <= 1)

let test_structured_identity_budget_beats_adk15 () =
  (* The reduced-domain budget must be far below the sqrt(n) one. *)
  let n = 1_048_576 in
  let k = 8 and eps = 0.25 in
  let cells = (8 * k * Histotest.Config.log2i k) + k in
  ignore cells;
  let structured =
    H.Structured_identity.budget
      ~cells:(int_of_float (8. *. float_of_int k /. eps))
      ~eps:(eps /. 2.) ()
  in
  let generic = H.Adk15.budget ~n ~eps () in
  Alcotest.(check bool)
    (Printf.sprintf "structured %d << generic %d" structured generic)
    true
    (10 * structured < generic)


let test_pp_report_and_boost () =
  let n = 256 in
  let d = Families.staircase ~n ~k:2 ~rng:(rng ()) in
  let r = H.Hist_tester.run (oracle_of d) ~k:2 ~eps:0.3 in
  let rendered = Format.asprintf "%a" H.Hist_tester.pp_report r in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions verdict" true (contains rendered "verdict");
  Alcotest.(check bool) "mentions sieve" true (contains rendered "sieve");
  let v =
    Amplify.majority_vote ~trials:3 (fun _ ->
        H.Hist_tester.test (oracle_of d) ~k:2 ~eps:0.3)
  in
  Alcotest.(check bool) "boosted accepts member" true (v = Verdict.Accept)


let test_paper_profile_literal_values () =
  (* The paper profile must carry the text's constants verbatim. *)
  let c = H.Config.paper in
  (* b = 20 k log2 k / eps (Algorithm 1 step 1): k=8, eps=0.25 -> 1920. *)
  Alcotest.(check int) "b literal" 1920 (H.Config.part_b c ~k:8 ~eps:0.25);
  (* m = 20000 sqrt(n)/eps^2: n=10000, eps=0.5 -> 20000*100*4 = 8e6. *)
  Alcotest.(check int) "test budget literal" 8_000_000
    (H.Config.test_samples c ~n:10_000 ~eps:0.5);
  (* eps' = 13 eps/30. *)
  Alcotest.(check (float 1e-12)) "eps fraction" (13. /. 30.)
    c.H.Config.test_eps_frac;
  (* Sieve schedule: stop at 10 U, residual 2 U, with U = m alpha^2
     (stop_mult 100 against the m eps^2/10 threshold scale). *)
  Alcotest.(check (float 1e-9)) "stop = 10 m alpha^2"
    (10. *. 1000. *. (13. /. 30. *. 0.3) ** 2.)
    (H.Config.sieve_stop_threshold c ~m:1000. ~eps:0.3);
  (* delta = 1/(10 (k+1)) repetitions grow with k and stay odd. *)
  let r = H.Config.sieve_reps c ~k:9 in
  Alcotest.(check bool) "reps odd" true (r mod 2 = 1);
  Alcotest.(check bool) "reps cover delta" true
    (r >= Amplify.repetitions_for ~delta:0.01)


(* --- Learn (ADLS15-style agnostic learner) --- *)

let test_learn_recovers_khist () =
  let n = 2048 in
  let d = Families.staircase ~n ~k:4 ~rng:(rng ()) in
  let res = H.Learn.run (oracle_of d) ~k:4 ~eps:0.2 in
  let tv = Distance.tv (Khist.to_pmf res.H.Learn.hypothesis) d in
  Alcotest.(check bool)
    (Printf.sprintf "tv %.3f within eps" tv)
    true (tv <= 0.2);
  Alcotest.(check bool) "at most k pieces" true
    (Khist.pieces res.H.Learn.hypothesis <= 4)

let test_learn_agnostic () =
  (* On a non-histogram input the learner must compete with the best
     k-histogram up to O(eps). *)
  let n = 2048 in
  let d = Families.bimodal ~n in
  let eps = 0.2 in
  let best = Closest.tv_to_hk d ~k:8 in
  let res = H.Learn.run (oracle_of d) ~k:8 ~eps in
  let achieved = Distance.tv (Khist.to_pmf res.H.Learn.hypothesis) d in
  Alcotest.(check bool)
    (Printf.sprintf "achieved %.3f vs best %.3f + eps" achieved best)
    true
    (achieved <= best +. eps)

let test_learn_budget_scales () =
  Alcotest.(check bool) "k scaling" true
    (H.Learn.budget ~k:8 ~eps:0.25 = 4 * H.Learn.budget ~k:2 ~eps:0.25);
  Alcotest.(check bool) "eps scaling" true
    (H.Learn.budget ~k:2 ~eps:0.125 = 4 * H.Learn.budget ~k:2 ~eps:0.25)

let () =
  Alcotest.run "histotest"
    [
      ( "config",
        [
          Alcotest.test_case "profiles" `Quick test_config_profiles;
          Alcotest.test_case "scalings" `Quick test_config_scalings;
          Alcotest.test_case "scale budget" `Quick test_config_scale_budget;
          Alcotest.test_case "log2i" `Quick test_log2i;
          Alcotest.test_case "sieve reps cap" `Quick test_sieve_reps_cap;
          Alcotest.test_case "paper literals" `Quick
            test_paper_profile_literal_values;
        ] );
      ( "approx_part",
        [
          Alcotest.test_case "heavy isolated" `Quick
            test_approx_part_heavy_isolated;
          Alcotest.test_case "weights bounded" `Quick
            test_approx_part_weights_bounded;
          Alcotest.test_case "invalid" `Quick test_approx_part_invalid;
          Alcotest.test_case "heavy flags on spiky input" `Quick
            test_approx_part_heavy_flags_spiky;
        ] );
      ( "learner",
        [
          Alcotest.test_case "positive and normalized" `Quick
            test_learner_positive_and_normalized;
          Alcotest.test_case "chi2 off breakpoints" `Quick
            test_learner_chi2_guarantee_off_breakpoints;
        ] );
      ( "adk15",
        [
          Alcotest.test_case "accepts identity" `Quick test_adk15_accepts_identity;
          Alcotest.test_case "rejects far" `Quick test_adk15_rejects_far;
          Alcotest.test_case "masked" `Quick test_adk15_masked_ignores_bad_region;
        ] );
      ( "sieve",
        [
          Alcotest.test_case "removes planted" `Quick
            test_sieve_removes_planted_cells;
          Alcotest.test_case "clean removes nothing" `Quick
            test_sieve_clean_removes_nothing;
          Alcotest.test_case "budget rejection" `Quick test_sieve_budget_rejection;
          Alcotest.test_case "eligibility" `Quick test_sieve_respects_eligibility;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "completeness" `Slow test_algorithm1_completeness;
          Alcotest.test_case "soundness" `Slow test_algorithm1_soundness;
          Alcotest.test_case "uniform k=1" `Slow test_algorithm1_uniform_k1;
          Alcotest.test_case "report fields" `Quick test_algorithm1_report_fields;
          Alcotest.test_case "pinned reports" `Quick
            test_algorithm1_pinned_reports;
          Alcotest.test_case "no domain-sized arrays" `Quick
            test_algorithm1_no_domain_arrays;
          Alcotest.test_case "dense adapters match per-cell path" `Quick
            test_dense_adapters_match_khist;
          Alcotest.test_case "invalid args" `Quick test_algorithm1_invalid_args;
          Alcotest.test_case "plan" `Quick test_algorithm1_plan_positive;
          Alcotest.test_case "pp_report and boost" `Quick
            test_pp_report_and_boost;
        ] );
      ( "uniformity",
        [
          Alcotest.test_case "accepts uniform" `Quick
            test_uniformity_accepts_uniform;
          Alcotest.test_case "rejects far" `Quick test_uniformity_rejects_far;
          Alcotest.test_case "collision count" `Quick test_collision_count;
        ] );
      ( "identity",
        [ Alcotest.test_case "l2 tester" `Quick test_identity_l2 ] );
      ( "baselines",
        [
          Alcotest.test_case "cdgr16 completeness" `Slow
            test_learn_then_test_completeness;
          Alcotest.test_case "cdgr16 soundness" `Slow
            test_learn_then_test_soundness;
          Alcotest.test_case "ilr12 completeness" `Slow test_ilr12_completeness;
          Alcotest.test_case "ilr12 soundness" `Slow test_ilr12_soundness;
          Alcotest.test_case "facade" `Quick test_tester_facade;
        ] );
      ( "learn",
        [
          Alcotest.test_case "recovers k-histogram" `Quick
            test_learn_recovers_khist;
          Alcotest.test_case "agnostic" `Quick test_learn_agnostic;
          Alcotest.test_case "budget" `Quick test_learn_budget_scales;
        ] );
      ( "closeness",
        [
          Alcotest.test_case "same accepts" `Quick test_closeness_same;
          Alcotest.test_case "far rejects" `Quick test_closeness_far;
          Alcotest.test_case "null mean" `Quick test_closeness_statistic_null_mean;
          Alcotest.test_case "domain check" `Quick
            test_closeness_mismatched_domains;
        ] );
      ( "structured_identity",
        [
          Alcotest.test_case "reduction partition" `Quick
            test_structured_reduction_partition;
          Alcotest.test_case "accepts identity" `Quick
            test_structured_identity_accepts;
          Alcotest.test_case "rejects far k-hist" `Quick
            test_structured_identity_rejects_far_khist;
          Alcotest.test_case "budget advantage" `Quick
            test_structured_identity_budget_beats_adk15;
        ] );
      ( "model_select",
        [ Alcotest.test_case "finds k" `Slow test_model_select_finds_k ] );
      ( "lowerbound",
        [
          Alcotest.test_case "supp size instances" `Quick test_supp_size_instances;
          Alcotest.test_case "large cover" `Quick test_supp_size_large_cover;
          Alcotest.test_case "large is far" `Quick test_supp_size_large_is_far;
          Alcotest.test_case "paninski far from H_k" `Quick
            test_paninski_far_from_hk;
          Alcotest.test_case "eps embedded" `Quick test_eps_embedded;
        ] );
      ( "modal",
        [ Alcotest.test_case "plug-in tester" `Quick test_modal_tester ] );
    ]

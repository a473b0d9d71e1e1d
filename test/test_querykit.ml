let rng () = Randkit.Rng.create ~seed:555
let iv lo hi = Interval.make ~lo ~hi

(* --- Selectivity --- *)

let prop_exact_histogram_exact_estimates =
  QCheck.Test.make
    ~name:"estimates are exact when the histogram is the exact decomposition"
    ~count:100
    QCheck.(triple (int_range 2 64) (int_range 0 63) (int_range 1 64))
    (fun (n, a, len) ->
      let r = rng () in
      let p = Families.random_khist ~n ~k:(min 5 n) ~rng:r in
      let h = Khist.of_pmf p in
      let lo = min a (n - 1) in
      let hi = min n (lo + len) in
      let q = iv lo hi in
      Float.abs (Selectivity.estimate_range h q -. Selectivity.true_range p q)
      < 1e-9)

let test_estimate_uniform_spread () =
  (* One bucket [0,4) with mass 0.8: a half-bucket query sees half of it. *)
  let p = Pmf.create [| 0.5; 0.3; 0.1; 0.1 |] in
  let h = Construct.equi_width p ~k:1 in
  Alcotest.(check (float 1e-12)) "half bucket" 0.5
    (Selectivity.estimate_range h (iv 0 2));
  (* The true mass of [0,2) is 0.8: the uniform-spread assumption errs. *)
  Alcotest.(check (float 1e-12)) "absolute error" 0.3
    (Selectivity.absolute_error p h (iv 0 2))

let test_estimate_point () =
  (* A point query is the width-one range. *)
  let p = Pmf.create [| 0.5; 0.5 |] in
  let h = Khist.of_pmf p in
  Alcotest.(check (float 1e-12)) "point" 0.5
    (Selectivity.estimate_range h (iv 0 1))

let test_estimate_out_of_domain () =
  let h = Khist.of_pmf (Pmf.uniform 4) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Selectivity.estimate_range h (iv 0 9));
       false
     with Invalid_argument _ -> true)

let test_relative_error_zero_truth () =
  let p = Pmf.create [| 0.; 1. |] in
  let h = Khist.of_pmf p in
  Alcotest.(check (float 1e-12)) "0/0 = 0" 0.
    (Selectivity.relative_error p h (iv 0 1))

let test_evaluate_report () =
  let r = rng () in
  let n = 128 in
  let p = Families.zipf ~n ~s:1.1 in
  let good = Khist.of_pmf p in
  let coarse = Construct.equi_width p ~k:2 in
  let queries = Workload.uniform_ranges ~n ~count:200 ~rng:r in
  let rep_good = Selectivity.evaluate p good queries in
  let rep_coarse = Selectivity.evaluate p coarse queries in
  Alcotest.(check int) "query count" 200 rep_good.Selectivity.queries;
  Alcotest.(check (float 1e-9)) "exact histogram has zero error" 0.
    rep_good.Selectivity.mean_abs;
  Alcotest.(check bool) "coarse is worse" true
    (rep_coarse.Selectivity.mean_abs > rep_good.Selectivity.mean_abs);
  Alcotest.(check bool) "max >= mean" true
    (rep_coarse.Selectivity.max_abs >= rep_coarse.Selectivity.mean_abs)

let test_finer_histograms_dont_hurt () =
  let r = rng () in
  let n = 256 in
  let p = Families.bimodal ~n in
  let queries =
    List.init 300 (fun _ ->
        let lo = Randkit.Rng.int r (n - 32 + 1) in
        iv lo (lo + 32))
  in
  let err k = (Selectivity.evaluate p (Construct.v_optimal p ~k) queries).Selectivity.mean_abs in
  Alcotest.(check bool) "v-optimal error shrinks in k" true
    (err 16 <= err 4 +. 1e-9 && err 4 <= err 1 +. 1e-9)

(* --- Workload --- *)

let prop_uniform_ranges_in_domain =
  QCheck.Test.make ~name:"uniform ranges stay in domain" ~count:100
    QCheck.(int_range 1 200)
    (fun n ->
      let qs = Workload.uniform_ranges ~n ~count:50 ~rng:(rng ()) in
      List.for_all
        (fun q ->
          Interval.lo q >= 0 && Interval.hi q <= n && Interval.length q >= 1)
        qs)

let test_data_centered () =
  (* With a point mass, every centered query must cover the atom. *)
  let p = Pmf.create (Array.init 100 (fun i -> if i = 50 then 1. else 0.)) in
  let qs = Workload.data_centered_ranges ~pmf:p ~width:11 ~count:20 ~rng:(rng ()) in
  List.iter
    (fun q ->
      Alcotest.(check bool) "covers atom" true
        (Interval.lo q <= 50 && 50 < Interval.hi q))
    qs

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "querykit"
    [
      ( "selectivity",
        [
          Alcotest.test_case "uniform spread" `Quick test_estimate_uniform_spread;
          Alcotest.test_case "point" `Quick test_estimate_point;
          Alcotest.test_case "out of domain" `Quick test_estimate_out_of_domain;
          Alcotest.test_case "relative error zero truth" `Quick
            test_relative_error_zero_truth;
          Alcotest.test_case "evaluate report" `Quick test_evaluate_report;
          Alcotest.test_case "finer helps" `Quick test_finer_histograms_dont_hurt;
          qc prop_exact_histogram_exact_estimates;
        ] );
      ( "workload",
        [
          Alcotest.test_case "data centered" `Quick test_data_centered;
          qc prop_uniform_ranges_in_domain;
        ] );
    ]

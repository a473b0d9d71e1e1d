let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* --- Kahan --- *)

let test_kahan_cancellation () =
  let t = Numkit.Kahan.create () in
  Numkit.Kahan.add t 1e16;
  Numkit.Kahan.add t 1.;
  Numkit.Kahan.add t (-1e16);
  check_float "compensation survives cancellation" 1. (Numkit.Kahan.total t)

let test_kahan_many_small () =
  let n = 10_000_000 in
  let x = 0.1 in
  let total = Numkit.Kahan.sum_f n (fun _ -> x) in
  check_close 1e-6 "1e7 * 0.1" 1e6 total

let test_kahan_sum_array () =
  check_float "plain array" 6. (Numkit.Kahan.sum_array [| 1.; 2.; 3. |]);
  check_float "empty array" 0. (Numkit.Kahan.sum_array [||])

let test_kahan_sum_seq () =
  let s = List.to_seq [ 0.5; 0.25; 0.25 ] in
  check_float "seq" 1. (Numkit.Kahan.sum_seq s)

(* --- Special --- *)

let test_log_gamma_half () =
  (* Γ(1/2) = sqrt(pi). *)
  check_close 1e-10 "log Γ(0.5)"
    (0.5 *. log Numkit.Special.pi)
    (Numkit.Special.log_gamma 0.5)

let test_log_gamma_recurrence () =
  (* Γ(x+1) = x Γ(x). *)
  List.iter
    (fun x ->
      check_close 1e-9 "recurrence"
        (Numkit.Special.log_gamma x +. log x)
        (Numkit.Special.log_gamma (x +. 1.)))
    [ 0.7; 1.3; 5.5; 20.1 ]

let test_log_factorial () =
  check_float "0!" 0. (Numkit.Special.log_factorial 0);
  check_float "1!" 0. (Numkit.Special.log_factorial 1);
  check_close 1e-9 "5!" (log 120.) (Numkit.Special.log_factorial 5);
  (* Cached and gamma-based regimes agree. *)
  check_close 1e-6 "2000! continuity"
    (Numkit.Special.log_factorial 1023 +. log 1024.)
    (Numkit.Special.log_factorial 1024)

let test_log_factorial_negative () =
  Alcotest.check_raises "negative" (Invalid_argument
    "Special.log_factorial: negative argument") (fun () ->
      ignore (Numkit.Special.log_factorial (-1)))

let test_log_binomial () =
  check_close 1e-9 "10 choose 3" (log 120.) (Numkit.Special.log_binomial 10 3);
  Alcotest.(check (float 0.)) "out of range" neg_infinity
    (Numkit.Special.log_binomial 5 7)

let test_erf () =
  check_float "erf 0" 0. (Numkit.Special.erf 0.);
  check_close 3e-7 "erf 1" 0.8427007929 (Numkit.Special.erf 1.);
  check_close 3e-7 "odd" (-.Numkit.Special.erf 0.7) (Numkit.Special.erf (-0.7))

let test_normal_cdf () =
  check_close 1e-7 "median" 0.5 (Numkit.Special.normal_cdf 0.);
  check_close 1e-4 "one sigma" 0.8413447 (Numkit.Special.normal_cdf 1.);
  check_close 1e-4 "shifted"
    (Numkit.Special.normal_cdf 0.)
    (Numkit.Special.normal_cdf ~mu:3. ~sigma:2. 3.)

let test_normal_quantile_roundtrip () =
  List.iter
    (fun p ->
      let x = Numkit.Special.normal_quantile p in
      check_close 1e-6 "roundtrip" p (Numkit.Special.normal_cdf x))
    [ 0.001; 0.1; 0.25; 0.5; 0.77; 0.99; 0.9999 ]

let test_poisson_pmf_normalizes () =
  let mean = 7.5 in
  let total =
    Numkit.Kahan.sum_f 100 (fun k -> Numkit.Special.poisson_pmf ~mean k)
  in
  check_close 1e-9 "sums to 1" 1. total

let test_poisson_cdf () =
  let mean = 4.2 in
  let direct k =
    Numkit.Kahan.sum_f (k + 1) (fun i -> Numkit.Special.poisson_pmf ~mean i)
  in
  List.iter
    (fun k ->
      check_close 1e-8 "cdf vs pmf sum" (direct k)
        (Numkit.Special.poisson_cdf ~mean k))
    [ 0; 1; 3; 8; 20 ]

let test_gamma_p_bounds () =
  Alcotest.(check bool) "P(a,0) = 0" true (Numkit.Special.gamma_p 3. 0. = 0.);
  Alcotest.(check bool) "P(a,big) -> 1" true
    (Numkit.Special.gamma_p 3. 100. > 0.999999)

(* --- Summary --- *)

let test_summary_moments () =
  let t = Numkit.Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Numkit.Summary.mean t);
  check_close 1e-9 "variance" (32. /. 7.) (Numkit.Summary.variance t)

let test_summary_empty () =
  let t = Numkit.Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Numkit.Summary.mean t));
  Alcotest.(check bool) "variance nan" true
    (Float.is_nan (Numkit.Summary.variance t))

let test_quantile () =
  let a = [| 1.; 2.; 3.; 4. |] in
  check_float "q0" 1. (Numkit.Summary.quantile a 0.);
  check_float "q1" 4. (Numkit.Summary.quantile a 1.);
  check_float "median interp" 2.5 (Numkit.Summary.median a);
  check_float "q third" (1.9 +. 0.1) (Numkit.Summary.quantile [| 1.; 2.; 3. |] 0.5)

let test_median_int () =
  Alcotest.(check int) "odd" 3 (Numkit.Summary.median_int [| 5; 1; 3 |]);
  Alcotest.(check int) "even upper" 4 (Numkit.Summary.median_int [| 1; 2; 4; 9 |])

(* Regression pins for the Array.sort compare -> Float.compare switch
   (histolint: float/poly-compare): identical outputs on unsorted input,
   duplicates, negative zeros, and infinities. *)
let test_quantile_pins () =
  let a = [| 3.5; -1.25; 7.; 0.; 3.5; -1.25; 2. |] in
  check_float "pin q0" (-1.25) (Numkit.Summary.quantile a 0.);
  check_float "pin q25" (-0.625) (Numkit.Summary.quantile a 0.25);
  check_float "pin median" 2. (Numkit.Summary.quantile a 0.5);
  check_close 1e-12 "pin q60" 2.9 (Numkit.Summary.quantile a 0.6);
  check_float "pin q75" 3.5 (Numkit.Summary.quantile a 0.75);
  check_float "pin q1" 7. (Numkit.Summary.quantile a 1.);
  check_float "pin singleton" 42. (Numkit.Summary.quantile [| 42. |] 0.9);
  (* -0. sorts before +0. under Float.compare, exactly as under the old
     polymorphic compare; the interpolated median is still zero. *)
  check_float "pin signed zero" 0. (Numkit.Summary.quantile [| 0.; -0. |] 0.5);
  (* Huge magnitudes order correctly and the q=0.5 rank needs no
     interpolation, so the extremes never enter the arithmetic. *)
  check_float "pin extremes" 1.
    (Numkit.Summary.quantile [| 1e300; -1e300; 1. |] 0.5)

let test_prefix_sums () =
  let p = Numkit.Summary.prefix_sums [| 1.; 2.; 3. |] in
  Alcotest.(check (array (float 1e-12))) "prefix" [| 0.; 1.; 3.; 6. |] p

let test_argmax () =
  Alcotest.(check int) "argmax" 2 (Numkit.Summary.argmax [| 1.; 5.; 7.; 7. |])

(* --- Search --- *)

let test_first_true () =
  let pred x = x >= 37 in
  Alcotest.(check (option int)) "finds threshold" (Some 37)
    (Numkit.Search.first_true ~lo:0 ~hi:100 pred);
  Alcotest.(check (option int)) "none" None
    (Numkit.Search.first_true ~lo:0 ~hi:30 pred);
  Alcotest.(check (option int)) "all true" (Some 50)
    (Numkit.Search.first_true ~lo:50 ~hi:60 (fun _ -> true))

let test_doubling () =
  let calls = ref 0 in
  let pred x =
    incr calls;
    x >= 1000
  in
  Alcotest.(check (option int)) "exact threshold" (Some 1000)
    (Numkit.Search.doubling_first_true ~start:1 ~limit:100_000 pred);
  Alcotest.(check bool) "logarithmic calls" true (!calls < 60);
  Alcotest.(check (option int)) "unreachable" None
    (Numkit.Search.doubling_first_true ~start:1 ~limit:500 pred)

let test_bisect () =
  let root =
    Numkit.Search.bisect_float ~lo:0. ~hi:2. ~eps:1e-12 (fun x ->
        (x *. x) -. 2.)
  in
  check_close 1e-9 "sqrt 2" (sqrt 2.) root

let test_bounds () =
  let a = [| 1.; 3.; 3.; 5. |] in
  Alcotest.(check int) "lower 3" 1 (Numkit.Search.lower_bound a 3.);
  Alcotest.(check int) "upper 3" 3 (Numkit.Search.upper_bound a 3.);
  Alcotest.(check int) "lower 0" 0 (Numkit.Search.lower_bound a 0.);
  Alcotest.(check int) "upper 9" 4 (Numkit.Search.upper_bound a 9.)

let test_int_bounds () =
  let a = [| 0; 4; 4; 7 |] in
  Alcotest.(check int) "lower 4" 1 (Numkit.Search.lower_bound_int a 4);
  Alcotest.(check int) "upper 4" 3 (Numkit.Search.upper_bound_int a 4);
  Alcotest.(check int) "lower -1" 0 (Numkit.Search.lower_bound_int a (-1));
  Alcotest.(check int) "upper 99" 4 (Numkit.Search.upper_bound_int a 99);
  (* Predecessor lookup: index of the last element <= x, the shape the
     witness's piece_of_pos uses. *)
  Alcotest.(check int) "pred 5" 2 (Numkit.Search.upper_bound_int a 5 - 1);
  Alcotest.(check int) "pred 0" 0 (Numkit.Search.upper_bound_int a 0 - 1)

(* --- Heap --- *)

let test_heap_sort () =
  let h = Numkit.Heap.create () in
  List.iter (fun x -> Numkit.Heap.push h ~priority:x x) [ 5.; 1.; 4.; 2.; 3. ];
  let out = ref [] in
  let rec drain () =
    match Numkit.Heap.pop h with
    | None -> ()
    | Some (_, x) ->
        out := x :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list (float 0.))) "ascending" [ 5.; 4.; 3.; 2.; 1. ] !out

let test_heap_max () =
  let h = Numkit.Heap.create ~max_heap:true () in
  List.iter (fun x -> Numkit.Heap.push h ~priority:x ()) [ 1.; 9.; 5. ];
  match Numkit.Heap.peek h with
  | Some (p, ()) -> check_float "max on top" 9. p
  | None -> Alcotest.fail "empty"

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list float)
    (fun xs ->
      let h = Numkit.Heap.create () in
      List.iter (fun x -> Numkit.Heap.push h ~priority:x x) xs;
      let rec drain acc =
        match Numkit.Heap.pop h with
        | None -> List.rev acc
        | Some (_, x) -> drain (x :: acc)
      in
      let drained = drain [] in
      drained = List.sort compare xs)

(* --- Wmedian --- *)

let brute_l1_cost pts =
  (* Optimal constant is attained at one of the data values. *)
  match pts with
  | [] -> 0.
  | _ ->
      List.fold_left
        (fun best (v, _) ->
          let cost =
            List.fold_left
              (fun acc (v', w') -> acc +. (w' *. Float.abs (v' -. v)))
              0. pts
          in
          Float.min best cost)
        infinity pts

let prop_wmedian_cost =
  QCheck.Test.make ~name:"wmedian cost equals brute force" ~count:300
    QCheck.(list (pair (float_bound_inclusive 10.) (float_bound_inclusive 5.)))
    (fun pts ->
      let pts = List.map (fun (v, w) -> (v, Float.abs w)) pts in
      let med = Numkit.Wmedian.create () in
      List.iter
        (fun (v, w) -> Numkit.Wmedian.add med ~value:v ~weight:w)
        pts;
      let got = Numkit.Wmedian.cost med in
      let want = brute_l1_cost (List.filter (fun (_, w) -> w > 0.) pts) in
      let want = if want = infinity then 0. else want in
      Float.abs (got -. want) <= 1e-9 +. (1e-9 *. Float.abs want))

let test_wmedian_simple () =
  let med = Numkit.Wmedian.create () in
  Numkit.Wmedian.add med ~value:1. ~weight:1.;
  Numkit.Wmedian.add med ~value:2. ~weight:1.;
  Numkit.Wmedian.add med ~value:10. ~weight:1.;
  check_float "cost |1-2|+|10-2|" 9. (Numkit.Wmedian.cost med);
  check_float "median" 2. (Numkit.Wmedian.median med)

let test_wmedian_heavy_weight () =
  let med = Numkit.Wmedian.create () in
  Numkit.Wmedian.add med ~value:0. ~weight:1.;
  Numkit.Wmedian.add med ~value:100. ~weight:10.;
  check_float "heavy point wins" 100. (Numkit.Wmedian.median med);
  check_float "cost" 100. (Numkit.Wmedian.cost med)

(* --- Rank_index --- *)

(* Streaming reference for any segment: replay the cells through
   Wmedian.  Independent of the wavelet tree's prefix-sum algebra. *)
let wmedian_seg values weights lo hi =
  let med = Numkit.Wmedian.create () in
  for i = lo to hi - 1 do
    Numkit.Wmedian.add med ~value:values.(i) ~weight:weights.(i)
  done;
  (Numkit.Wmedian.cost med, Numkit.Wmedian.median med)

let test_rank_index_simple () =
  let values = [| 1.; 2.; 10. |] and weights = [| 1.; 1.; 1. |] in
  let idx = Numkit.Rank_index.create ~values ~weights in
  Alcotest.(check int) "size" 3 (Numkit.Rank_index.size idx);
  check_float "cost full" 9. (Numkit.Rank_index.seg_cost idx ~lo:0 ~hi:3);
  check_float "median full" 2. (Numkit.Rank_index.seg_median idx ~lo:0 ~hi:3);
  check_float "cost single" 0. (Numkit.Rank_index.seg_cost idx ~lo:2 ~hi:3);
  check_float "median single" 10.
    (Numkit.Rank_index.seg_median idx ~lo:2 ~hi:3);
  check_float "weight" 2. (Numkit.Rank_index.seg_weight idx ~lo:0 ~hi:2)

let test_rank_index_zero_weight () =
  let idx =
    Numkit.Rank_index.create ~values:[| 3.; 7. |] ~weights:[| 0.; 0. |]
  in
  check_float "zero-weight cost" 0. (Numkit.Rank_index.seg_cost idx ~lo:0 ~hi:2);
  Alcotest.(check bool) "zero-weight median is nan" true
    (Float.is_nan (Numkit.Rank_index.seg_median idx ~lo:0 ~hi:2))

let test_rank_index_guards () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true
    (rejects (fun () -> Numkit.Rank_index.create ~values:[||] ~weights:[||]));
  Alcotest.(check bool) "length mismatch" true
    (rejects (fun () ->
         Numkit.Rank_index.create ~values:[| 1. |] ~weights:[| 1.; 2. |]));
  Alcotest.(check bool) "nan value" true
    (rejects (fun () ->
         Numkit.Rank_index.create ~values:[| nan |] ~weights:[| 1. |]));
  Alcotest.(check bool) "negative weight" true
    (rejects (fun () ->
         Numkit.Rank_index.create ~values:[| 1. |] ~weights:[| -1. |]));
  let idx = Numkit.Rank_index.create ~values:[| 1. |] ~weights:[| 1. |] in
  Alcotest.(check bool) "empty segment" true
    (rejects (fun () -> Numkit.Rank_index.seg_cost idx ~lo:0 ~hi:0));
  Alcotest.(check bool) "out of range" true
    (rejects (fun () -> Numkit.Rank_index.seg_cost idx ~lo:0 ~hi:2))

(* Exhaustive cross-check against the streaming Wmedian on every
   segment of a random instance.  Weights include exact zeros (the
   masked-cell case of the closest-H_k DP); duplicated values exercise
   the rank dedup. *)
let prop_rank_index_matches_wmedian =
  QCheck.Test.make ~name:"rank index equals streaming wmedian on all segments"
    ~count:200
    QCheck.(
      list_of_size (Gen.int_range 1 24)
        (pair (float_bound_inclusive 8.) (float_bound_inclusive 4.)))
    (fun pts ->
      let values =
        Array.of_list (List.map (fun (v, _) -> Float.round (v *. 2.)) pts)
      in
      let weights =
        Array.of_list
          (List.map (fun (_, w) -> if w < 0.4 then 0. else Float.abs w) pts)
      in
      let idx = Numkit.Rank_index.create ~values ~weights in
      let n = Array.length values in
      let ok = ref true in
      for lo = 0 to n - 1 do
        for hi = lo + 1 to n do
          let got = Numkit.Rank_index.seg_cost idx ~lo ~hi in
          let want, wmed = wmedian_seg values weights lo hi in
          if Float.abs (got -. want) > 1e-9 +. (1e-9 *. Float.abs want) then
            ok := false;
          (* Median agreement whenever the segment carries weight: both
             sides implement the weighted lower median. *)
          let w = Numkit.Rank_index.seg_weight idx ~lo ~hi in
          if w > 0. then
            let gmed = Numkit.Rank_index.seg_median idx ~lo ~hi in
            if not (Float.equal gmed wmed) then ok := false
        done
      done;
      !ok)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "numkit"
    [
      ( "kahan",
        [
          Alcotest.test_case "cancellation" `Quick test_kahan_cancellation;
          Alcotest.test_case "many small" `Quick test_kahan_many_small;
          Alcotest.test_case "sum_array" `Quick test_kahan_sum_array;
          Alcotest.test_case "sum_seq" `Quick test_kahan_sum_seq;
        ] );
      ( "special",
        [
          Alcotest.test_case "log_gamma half" `Quick test_log_gamma_half;
          Alcotest.test_case "log_gamma recurrence" `Quick
            test_log_gamma_recurrence;
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          Alcotest.test_case "log_factorial negative" `Quick
            test_log_factorial_negative;
          Alcotest.test_case "log_binomial" `Quick test_log_binomial;
          Alcotest.test_case "erf" `Quick test_erf;
          Alcotest.test_case "normal_cdf" `Quick test_normal_cdf;
          Alcotest.test_case "normal_quantile roundtrip" `Quick
            test_normal_quantile_roundtrip;
          Alcotest.test_case "poisson pmf normalizes" `Quick
            test_poisson_pmf_normalizes;
          Alcotest.test_case "poisson cdf" `Quick test_poisson_cdf;
          Alcotest.test_case "gamma_p bounds" `Quick test_gamma_p_bounds;
        ] );
      ( "summary",
        [
          Alcotest.test_case "moments" `Quick test_summary_moments;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "quantile pins" `Quick test_quantile_pins;
          Alcotest.test_case "median_int" `Quick test_median_int;
          Alcotest.test_case "prefix_sums" `Quick test_prefix_sums;
          Alcotest.test_case "argmax" `Quick test_argmax;
        ] );
      ( "search",
        [
          Alcotest.test_case "first_true" `Quick test_first_true;
          Alcotest.test_case "doubling" `Quick test_doubling;
          Alcotest.test_case "bisect" `Quick test_bisect;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sort" `Quick test_heap_sort;
          Alcotest.test_case "max heap" `Quick test_heap_max;
          qc prop_heap_sorts;
        ] );
      ( "wmedian",
        [
          Alcotest.test_case "simple" `Quick test_wmedian_simple;
          Alcotest.test_case "heavy weight" `Quick test_wmedian_heavy_weight;
          qc prop_wmedian_cost;
        ] );
      ( "rank_index",
        [
          Alcotest.test_case "simple" `Quick test_rank_index_simple;
          Alcotest.test_case "zero weight" `Quick test_rank_index_zero_weight;
          Alcotest.test_case "guards" `Quick test_rank_index_guards;
          qc prop_rank_index_matches_wmedian;
        ] );
    ]

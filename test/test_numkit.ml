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

(* The unboxed loops against the accumulator they restate: terms of wide
   magnitude and both signs, so both compensation branches run and
   cancellation happens, must give bitwise the [add] fold's total — over
   the whole array and over every prefix and suffix range. *)
let add_fold a ~pos ~len =
  let t = Numkit.Kahan.create () in
  for i = pos to pos + len - 1 do
    Numkit.Kahan.add t a.(i)
  done;
  Numkit.Kahan.total t

let prop_kahan_loop_bitwise =
  let term =
    QCheck.Gen.(
      map3
        (fun m e neg ->
          let x = ldexp m e in
          if neg then -.x else x)
        (float_bound_inclusive 1.) (int_range (-60) 60) bool)
  in
  QCheck.Test.make ~name:"sum_array/sum_sub are bitwise the add fold"
    ~count:300
    QCheck.(
      make ~print:Print.(array float) Gen.(array_size (int_range 0 48) term))
    (fun a ->
      let n = Array.length a in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      same (Numkit.Kahan.sum_array a) (add_fold a ~pos:0 ~len:n)
      && List.for_all
           (fun pos ->
             same
               (Numkit.Kahan.sum_sub a ~pos ~len:(n - pos))
               (add_fold a ~pos ~len:(n - pos))
             && same
                  (Numkit.Kahan.sum_sub a ~pos:0 ~len:pos)
                  (add_fold a ~pos:0 ~len:pos))
           (List.init (n + 1) Fun.id))

let test_kahan_sum_sub_bounds () =
  let a = [| 1.; 2.; 3. |] in
  check_float "middle" 2. (Numkit.Kahan.sum_sub a ~pos:1 ~len:1);
  check_float "empty at end" 0. (Numkit.Kahan.sum_sub a ~pos:3 ~len:0);
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Kahan.sum_sub: range outside the array")
        (fun () -> ignore (Numkit.Kahan.sum_sub a ~pos ~len : float)))
    [ (-1, 1); (0, 4); (2, 2); (4, 0); (1, -1) ]

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

let test_erf () =
  (* erf x = P(1/2, x^2) for x >= 0: pins [gamma_p] at a half-integer
     shape, the case odd-degree chi-square tails use. *)
  let erf x = Numkit.Special.gamma_p 0.5 (x *. x) in
  check_float "erf 0" 0. (erf 0.);
  check_close 3e-7 "erf 1" 0.8427007929 (erf 1.);
  check_close 3e-7 "erf 0.7" 0.6778011938 (erf 0.7)

let test_poisson_pmf_normalizes () =
  let mean = 7.5 in
  let total =
    Numkit.Kahan.sum_f 100 (fun k -> Numkit.Special.poisson_pmf ~mean k)
  in
  check_close 1e-9 "sums to 1" 1. total

let test_poisson_cdf () =
  (* P(X <= k) = 1 - P(k + 1, mean) for X ~ Poisson(mean). *)
  let mean = 4.2 in
  let direct k =
    Numkit.Kahan.sum_f (k + 1) (fun i -> Numkit.Special.poisson_pmf ~mean i)
  in
  List.iter
    (fun k ->
      check_close 1e-8 "cdf vs pmf sum" (direct k)
        (1. -. Numkit.Special.gamma_p (float_of_int (k + 1)) mean))
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
  check_float "median interp" 2.5 (Numkit.Summary.quantile a 0.5);
  check_float "q third" (1.9 +. 0.1) (Numkit.Summary.quantile [| 1.; 2.; 3. |] 0.5)

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

(* --- Search --- *)

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

let test_bounds () =
  let a = [| 1.; 3.; 3.; 5. |] in
  Alcotest.(check int) "lower 3" 1 (Numkit.Search.lower_bound a 3.);
  Alcotest.(check int) "lower 0" 0 (Numkit.Search.lower_bound a 0.);
  Alcotest.(check int) "lower 9" 4 (Numkit.Search.lower_bound a 9.)

let test_int_bounds () =
  let a = [| 0; 4; 4; 7 |] in
  Alcotest.(check int) "upper 4" 3 (Numkit.Search.upper_bound_int a 4);
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

(* The descents run as loops over unboxed local refs and answer into the
   index's slot: [seg_cost_into] allocates nothing, and the float-valued
   wrappers only their boxed result (2 words).  The recursive descent
   they replaced boxed its accumulators at every level, ~20 words a
   query on a 650-cell index, the size of an Algorithm 1 checking DP.
   A rebuild of a warm index allocates nothing either. *)
let test_rank_index_allocation () =
  let k = 650 in
  let values = Array.init k (fun i -> float_of_int ((i * 37) mod 101) /. 7.) in
  let weights = Array.init k (fun i -> if i mod 5 = 0 then 0. else 1.) in
  let idx = Numkit.Rank_index.create ~values ~weights in
  let calls = 10_000 in
  let sink = [| 0. |] in
  let words f = (snd (Refkit.Alloc.measure f)).Refkit.Alloc.minor in
  let per_call query =
    words (fun () ->
        for c = 0 to calls - 1 do
          let lo = c mod 300 in
          sink.(0) <- sink.(0) +. query idx ~lo ~hi:(lo + 1 + (c mod 350))
        done)
    /. float_of_int calls
  in
  let cost = per_call Numkit.Rank_index.seg_cost in
  let median = per_call Numkit.Rank_index.seg_median in
  if cost > 2.01 || median > 2.01 then
    Alcotest.failf "words per query: seg_cost %.2f, seg_median %.2f (want <= 2)"
      cost median;
  let slot = Numkit.Rank_index.slot idx in
  let into =
    words (fun () ->
        for c = 0 to calls - 1 do
          let lo = c mod 300 in
          Numkit.Rank_index.seg_cost_into idx ~lo ~hi:(lo + 1 + (c mod 350));
          sink.(0) <- sink.(0) +. slot.(0)
        done)
  in
  let buf a = Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a in
  let values = buf values and weights = buf weights in
  Numkit.Rank_index.rebuild idx ~values ~weights ~len:k;
  let rebuild =
    words (fun () ->
        Numkit.Rank_index.rebuild idx ~values ~weights ~len:(k - 17))
  in
  if into > 0. || rebuild > 0. then
    Alcotest.failf "seg_cost_into: %.0f words over %d queries; warm rebuild: \
                    %.0f words (want 0)" into calls rebuild

(* Bits pinned across the rewrite of the index's layout.  A fixed battery
   — ties, exact zero weights, repeated values, one-rank and two-value
   instances, fractional weights whose sums round — at K from 1 to 700:
   every range while K <= 64, 3000 seeded ranges beyond.  Each query's
   seg_cost, seg_median and seg_weight bits go into one MD5 per K.  The
   digests were recorded from the pointer wavelet tree the flat index
   replaced, so the new layout rounds exactly as the old one did. *)
let lcg s = ((s * 25214903917) + 11) land 0xFFFF_FFFF_FFFF

let battery_instance ~kk ~shape ~seed =
  let s = ref (lcg (seed + (kk * 7919) + (shape * 104729))) in
  let next bound =
    s := lcg !s;
    (!s lsr 17) mod bound
  in
  let pool = [| 0.; 0.25; 0.5; 1.; 1.5; 3. |] in
  let values = Array.make kk 0. and weights = Array.make kk 0. in
  let run_value = ref 0. in
  for i = 0 to kk - 1 do
    match shape with
    | 0 ->
        values.(i) <- pool.(next 6);
        weights.(i) <- (if next 4 = 0 then 0. else float_of_int (1 + next 4))
    | 1 ->
        values.(i) <- float_of_int (next 100_003) /. 65536.;
        weights.(i) <- (if next 5 = 0 then 0. else float_of_int (1 + next 32))
    | 2 ->
        values.(i) <- 0.1875;
        weights.(i) <- float_of_int (next 3)
    | 3 ->
        if i = 0 || next 4 = 0 then run_value := float_of_int (next 37) *. 0.1;
        values.(i) <- !run_value;
        weights.(i) <- 0.1 *. float_of_int (next 7)
    | _ ->
        values.(i) <- (if i land 1 = 0 then 2. else 5.);
        weights.(i) <- 1.
  done;
  (values, weights, next)

let battery_digest ~kk =
  let buf = Buffer.create 4096 in
  let add x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  for shape = 0 to 4 do
    let values, weights, next = battery_instance ~kk ~shape ~seed:kk in
    let idx = Numkit.Rank_index.create ~values ~weights in
    let one lo hi =
      add (Numkit.Rank_index.seg_cost idx ~lo ~hi);
      add (Numkit.Rank_index.seg_median idx ~lo ~hi);
      add (Numkit.Rank_index.seg_weight idx ~lo ~hi)
    in
    if kk <= 64 then
      for lo = 0 to kk - 1 do
        for hi = lo + 1 to kk do
          one lo hi
        done
      done
    else
      for _ = 1 to 3000 do
        let a = next kk and b = next kk in
        if a <= b then one a (b + 1) else one b (a + 1)
      done
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_rank_index_parent_bits () =
  List.iter
    (fun (kk, want) ->
      Alcotest.(check string) (Printf.sprintf "K=%d" kk) want
        (battery_digest ~kk))
    [
      (1, "9880adcd44c9249335491b75794ed9d0");
      (2, "cf595931b356b9c9bbfdb75c4ae5ebef");
      (3, "bf1f51b5543c9782ab538a5362ffe1ef");
      (4, "f41b7a36d9e434d32f105327b79117e9");
      (5, "75fe8fe9d8cb13eee6055c45326cfe60");
      (7, "4320009bb17bbc412216327b49ca68a0");
      (8, "76de0d63d0097be7af2b5ee5440f43e0");
      (13, "e8412c1f5cb9fc73e4a9d7e21c6eed30");
      (16, "7fd996717bcc12607e155ae2e112ed7a");
      (31, "ce5c609ba971a4045235eed0547ffb6b");
      (33, "c2ef8d07826e805f919e91472908024e");
      (64, "2be3088c5f6110676a09223981ba1eaf");
      (100, "62b47d9491fe7ecdc77166bb148b6d6e");
      (257, "73778a2adf5ae763e04945d1e05556a6");
      (512, "4bd70370b94ecec4fd8817d69f1ef2ac");
      (700, "5ac3a550ca6cc4322e55cd4862bdcfd7");
    ]

(* One index rebuilt over a sequence of inputs that grow and shrink
   answers every range with the bits of a fresh index over the same
   input: a rebuild leaves nothing of an earlier, larger build behind. *)
let prop_rank_index_rebuild_matches_fresh =
  QCheck.Test.make ~name:"a rebuilt index answers like a fresh one" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 6) (pair (int_range 1 90) small_nat))
    (fun plan ->
      let reused = Numkit.Rank_index.empty () in
      List.for_all
        (fun (kk, seed) ->
          let values, weights, _ =
            battery_instance ~kk ~shape:(seed mod 5) ~seed
          in
          let fresh = Numkit.Rank_index.create ~values ~weights in
          let buf a =
            Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout a
          in
          (* Inputs longer than [len]: the tail must be ignored. *)
          let pad a = Array.append a [| nan; -1. |] in
          Numkit.Rank_index.rebuild reused ~values:(buf (pad values))
            ~weights:(buf (pad weights)) ~len:kk;
          let same = ref true in
          let bits f idx ~lo ~hi = Int64.bits_of_float (f idx ~lo ~hi) in
          for lo = 0 to kk - 1 do
            for hi = lo + 1 to kk do
              List.iter
                (fun f ->
                  let want = bits f fresh ~lo ~hi in
                  if not (Int64.equal want (bits f reused ~lo ~hi)) then
                    same := false)
                Numkit.Rank_index.[ seg_cost; seg_median; seg_weight ]
            done
          done;
          !same)
        plan)

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
          Alcotest.test_case "sum_sub bounds" `Quick test_kahan_sum_sub_bounds;
          qc prop_kahan_loop_bitwise;
        ] );
      ( "special",
        [
          Alcotest.test_case "log_gamma half" `Quick test_log_gamma_half;
          Alcotest.test_case "log_gamma recurrence" `Quick
            test_log_gamma_recurrence;
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          Alcotest.test_case "log_factorial negative" `Quick
            test_log_factorial_negative;
          Alcotest.test_case "erf" `Quick test_erf;
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
          Alcotest.test_case "prefix_sums" `Quick test_prefix_sums;
        ] );
      ( "search",
        [
          Alcotest.test_case "doubling" `Quick test_doubling;
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
          Alcotest.test_case "queries allocate only their result" `Quick
            test_rank_index_allocation;
          Alcotest.test_case "bits recorded from the pointer tree" `Quick
            test_rank_index_parent_bits;
          qc prop_rank_index_matches_wmedian;
          qc prop_rank_index_rebuild_matches_fresh;
        ] );
    ]

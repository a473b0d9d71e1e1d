let rng () = Randkit.Rng.create ~seed:4242
let iv lo hi = Interval.make ~lo ~hi

(* --- Pmf --- *)

let test_pmf_create_valid () =
  let p = Pmf.create [| 0.25; 0.25; 0.5 |] in
  Alcotest.(check int) "size" 3 (Pmf.size p);
  Alcotest.(check (float 0.)) "get" 0.5 (Pmf.get p 2)

let test_pmf_create_invalid () =
  Alcotest.(check bool) "negative rejected" true
    (try
       ignore (Pmf.create [| 1.5; -0.5 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad total rejected" true
    (try
       ignore (Pmf.create [| 0.5; 0.6 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Pmf.create [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan rejected" true
    (try
       ignore (Pmf.create [| nan; 1. |]);
       false
     with Invalid_argument _ -> true)

let test_pmf_of_weights () =
  let p = Pmf.of_weights [| 1.; 3. |] in
  Alcotest.(check (float 1e-12)) "normalized" 0.25 (Pmf.get p 0);
  Alcotest.(check bool) "all zero rejected" true
    (try
       ignore (Pmf.of_weights [| 0.; 0. |]);
       false
     with Invalid_argument _ -> true)

let test_pmf_mass_and_support () =
  let p = Pmf.create [| 0.5; 0.; 0.25; 0.25 |] in
  Alcotest.(check (float 1e-12)) "mass_on" 0.25 (Pmf.mass_on p (iv 1 3));
  Alcotest.(check (list int)) "support" [ 0; 2; 3 ] (Pmf.support p);
  Alcotest.(check int) "support_size" 3 (Pmf.support_size p);
  Alcotest.(check (float 1e-12)) "min_nonzero" 0.25 (Pmf.min_nonzero p);
  Alcotest.(check (float 1e-12)) "mask"
    0.75
    (Pmf.mass_on_mask p [| true; true; false; true |])

let test_pmf_cdf () =
  let p = Pmf.create [| 0.1; 0.2; 0.7 |] in
  let c = Pmf.cdf p in
  Alcotest.(check int) "length" 4 (Array.length c);
  Alcotest.(check (float 1e-12)) "last is 1" 1. c.(3);
  Alcotest.(check (float 1e-12)) "middle" 0.3 c.(2)

let test_pmf_uniform_point () =
  let u = Pmf.uniform 4 in
  Alcotest.(check (float 1e-12)) "uniform" 0.25 (Pmf.get u 1);
  let pm = Pmf.point_mass ~n:5 2 in
  Alcotest.(check (float 0.)) "point" 1. (Pmf.get pm 2);
  Alcotest.(check (float 0.)) "elsewhere" 0. (Pmf.get pm 0)

let test_pmf_equal () =
  let a = Pmf.create [| 0.5; 0.5 |] and b = Pmf.of_weights [| 1.; 1. |] in
  Alcotest.(check bool) "equal" true (Pmf.equal a b)

(* --- Alias --- *)

let test_alias_frequencies () =
  let p = Pmf.create [| 0.1; 0.2; 0.3; 0.4 |] in
  let a = Alias.of_pmf p in
  let m = 200_000 in
  let counts = Alias.draw_counts a (rng ()) m in
  Alcotest.(check int) "counts sum" m (Array.fold_left ( + ) 0 counts);
  Array.iteri
    (fun i c ->
      let f = float_of_int c /. float_of_int m in
      Alcotest.(check bool)
        (Printf.sprintf "freq %d" i)
        true
        (Float.abs (f -. Pmf.get p i) < 0.01))
    counts

let test_alias_point_mass () =
  let a = Alias.of_pmf (Pmf.point_mass ~n:10 7) in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 7" 7 (Alias.draw a (rng ()))
  done

let test_alias_draw_many () =
  let a = Alias.of_pmf (Pmf.uniform 16) in
  let xs = Alias.draw_many a (rng ()) 1000 in
  Alcotest.(check int) "length" 1000 (Array.length xs);
  Array.iter
    (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 16))
    xs

(* The batched paths are the harness inner loop; they must be exactly
   "m successive draws" — same generator stream, same values — and agree
   with [draw] in distribution. *)

let test_draw_counts_agrees_with_draw () =
  let p = Pmf.create [| 0.05; 0.15; 0.3; 0.5 |] in
  let a = Alias.of_pmf p in
  let m = 100_000 in
  let batched = Alias.draw_counts a (rng ()) m in
  let looped = Array.make 4 0 in
  let r = Randkit.Rng.create ~seed:999 in
  for _ = 1 to m do
    let i = Alias.draw a r in
    looped.(i) <- looped.(i) + 1
  done;
  let tv = ref 0. in
  for i = 0 to 3 do
    tv :=
      !tv
      +. Float.abs (float_of_int batched.(i) -. float_of_int looped.(i))
         /. float_of_int m
  done;
  let tv = !tv /. 2. in
  Alcotest.(check bool)
    (Printf.sprintf "empirical tv %.4f < 0.01" tv)
    true (tv < 0.01)


(* --- Split_tree --- *)

let test_split_tree_sums_to_m () =
  let p = Families.zipf ~n:100 ~s:1. in
  let t = Split_tree.of_pmf p in
  Alcotest.(check int) "size" 100 (Split_tree.size t);
  let r = rng () in
  List.iter
    (fun m ->
      let counts = Split_tree.draw_counts t r m in
      Alcotest.(check int) "length" 100 (Array.length counts);
      Alcotest.(check bool) "nonnegative" true
        (Array.for_all (fun c -> c >= 0) counts);
      Alcotest.(check int)
        (Printf.sprintf "sums to %d" m)
        m
        (Array.fold_left ( + ) 0 counts))
    [ 0; 1; 7; 1000; 50_000 ]

let test_split_tree_marginals () =
  (* Leaf marginals are Binomial(m, p_i); check the means. *)
  let p = Pmf.create [| 0.05; 0.15; 0.3; 0.5 |] in
  let t = Split_tree.of_pmf p in
  let r = rng () in
  let m = 2000 and trials = 500 in
  let acc = Array.make 4 0 in
  for _ = 1 to trials do
    let counts = Split_tree.draw_counts t r m in
    for i = 0 to 3 do
      acc.(i) <- acc.(i) + counts.(i)
    done
  done;
  Array.iteri
    (fun i a ->
      let f = float_of_int a /. float_of_int (m * trials) in
      Alcotest.(check bool)
        (Printf.sprintf "marginal %d" i)
        true
        (Float.abs (f -. Pmf.get p i) < 0.01))
    acc

let test_split_tree_point_mass () =
  let t = Split_tree.of_pmf (Pmf.point_mass ~n:10 7) in
  let counts = Split_tree.draw_counts t (rng ()) 500 in
  Array.iteri
    (fun i c ->
      Alcotest.(check int)
        (Printf.sprintf "cell %d" i)
        (if i = 7 then 500 else 0)
        c)
    counts

let test_split_tree_zero_mass_cells () =
  (* Zero-mass leaves must never receive a count: their split is the
     closed-form binomial at p in {0, 1}, which also consumes no
     randomness. *)
  let p = Pmf.create [| 0.5; 0.; 0.25; 0.; 0.; 0.25; 0.; 0. |] in
  let t = Split_tree.of_pmf p in
  let r = rng () in
  for _ = 1 to 50 do
    let counts = Split_tree.draw_counts t r 1000 in
    Array.iteri
      (fun i c ->
        if Pmf.get p i = 0. then
          Alcotest.(check int) (Printf.sprintf "zero cell %d" i) 0 c)
      counts
  done

let test_split_tree_size_one () =
  let t = Split_tree.of_pmf (Pmf.create [| 1. |]) in
  let r = rng () in
  let witness = Randkit.Rng.copy r in
  Alcotest.(check (array int)) "all mass" [| 123 |]
    (Split_tree.draw_counts t r 123);
  Alcotest.(check int64) "no randomness for n=1"
    (Randkit.Rng.bits64 witness) (Randkit.Rng.bits64 r)

let test_split_tree_into_same_stream () =
  let p = Families.zipf ~n:37 ~s:0.8 in
  (* Non-power-of-two n exercises the padded leaves. *)
  let t = Split_tree.of_pmf p in
  let r1 = rng () in
  let r2 = Randkit.Rng.copy r1 in
  let alloc = Split_tree.draw_counts t r1 700 in
  let counts = Array.make 37 (-1) in
  Split_tree.draw_counts_into t r2 ~counts 700;
  Alcotest.(check (array int)) "same counts" alloc counts;
  Alcotest.(check int64) "same stream after"
    (Randkit.Rng.bits64 r1) (Randkit.Rng.bits64 r2)

let test_split_tree_into_zeroes_buffer () =
  let p = Pmf.point_mass ~n:4 0 in
  let t = Split_tree.of_pmf p in
  let counts = Array.make 4 99 in
  Split_tree.draw_counts_into t (rng ()) ~counts 5;
  Alcotest.(check (array int)) "stale entries cleared" [| 5; 0; 0; 0 |] counts

let test_split_tree_invalid () =
  let t = Split_tree.of_pmf (Pmf.uniform 4) in
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative m" true
    (raises (fun () -> Split_tree.draw_counts t (rng ()) (-1)));
  Alcotest.(check bool) "short buffer" true
    (raises (fun () ->
         Split_tree.draw_counts_into t (rng ()) ~counts:(Array.make 3 0) 5));
  Alcotest.(check bool) "long buffer" true
    (raises (fun () ->
         Split_tree.draw_counts_into t (rng ()) ~counts:(Array.make 5 0) 5))

(* --- Distance --- *)

let test_distance_identical () =
  let p = Families.zipf ~n:64 ~s:1. in
  Alcotest.(check (float 1e-12)) "tv self" 0. (Distance.tv p p);
  Alcotest.(check (float 1e-12)) "chi2 self" 0. (Distance.chi2 p ~against:p);
  Alcotest.(check (float 1e-12)) "hellinger self" 0. (Distance.hellinger p p)

let test_distance_uniform_point () =
  let n = 10 in
  let u = Pmf.uniform n and pm = Pmf.point_mass ~n 0 in
  Alcotest.(check (float 1e-12)) "tv" (1. -. (1. /. float_of_int n))
    (Distance.tv u pm);
  Alcotest.(check bool) "chi2 infinite" true
    (Distance.chi2 u ~against:pm = infinity)

let test_distance_closed_form () =
  let a = Pmf.create [| 0.5; 0.5 |] and b = Pmf.create [| 0.25; 0.75 |] in
  Alcotest.(check (float 1e-12)) "tv" 0.25 (Distance.tv a b);
  Alcotest.(check (float 1e-12)) "l1" 0.5 (Distance.l1 a b);
  (* chi2(a || b) = (0.25)^2/0.25 + (0.25)^2/0.75 = 1/4 + 1/12 = 1/3. *)
  Alcotest.(check (float 1e-12)) "chi2" (1. /. 3.) (Distance.chi2 a ~against:b);
  Alcotest.(check (float 1e-12)) "l2 sq" (2. *. 0.0625) (Distance.l2_sq a b)

let test_distance_symmetry () =
  let a = Families.zipf ~n:32 ~s:1.1 and b = Pmf.uniform 32 in
  Alcotest.(check (float 1e-12)) "tv symmetric" (Distance.tv a b)
    (Distance.tv b a);
  Alcotest.(check (float 1e-12)) "hellinger symmetric" (Distance.hellinger a b)
    (Distance.hellinger b a)

let prop_restricted_sums_to_full =
  QCheck.Test.make ~name:"tv_on over partition cells sums to l1/2" ~count:100
    QCheck.(pair (int_range 2 64) (int_range 1 8))
    (fun (n, cells) ->
      let cells = min cells n in
      let r = rng () in
      let a = Families.random_khist ~n ~k:(min 4 n) ~rng:r in
      let b = Families.zipf ~n ~s:0.8 in
      let part = Partition.equal_width ~n ~cells in
      let total =
        Partition.fold (fun acc cell -> acc +. Distance.tv_on cell a b) 0. part
      in
      Float.abs (total -. Distance.tv a b) < 1e-9)

let test_tv_mask_full_is_tv () =
  let a = Families.zipf ~n:16 ~s:1. and b = Pmf.uniform 16 in
  let full = Array.make 16 true in
  Alcotest.(check (float 1e-12)) "full mask" (Distance.tv a b)
    (Distance.tv_mask full a b);
  let none = Array.make 16 false in
  Alcotest.(check (float 1e-12)) "empty mask" 0. (Distance.tv_mask none a b)

let test_chi2_mask () =
  let a = Pmf.create [| 0.5; 0.25; 0.25 |] in
  let b = Pmf.uniform 3 in
  let only0 = [| true; false; false |] in
  (* (0.5 - 1/3)^2 / (1/3) = (1/6)^2 * 3 = 1/12. *)
  Alcotest.(check (float 1e-12)) "masked chi2" (1. /. 12.)
    (Distance.chi2_mask only0 a ~against:b)

(* --- Families --- *)

let test_paninski_distance () =
  let n = 1000 and eps = 0.1 and c = 6. in
  let q = Families.paninski ~n ~eps ~c ~rng:(rng ()) in
  Alcotest.(check (float 1e-9)) "tv from uniform" (c *. eps /. 2.)
    (Distance.tv q (Pmf.uniform n))

let test_paninski_invalid () =
  Alcotest.(check bool) "odd n rejected" true
    (try
       ignore (Families.paninski ~n:7 ~eps:0.1 ~c:6. ~rng:(rng ()));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "c eps too big" true
    (try
       ignore (Families.paninski ~n:10 ~eps:0.5 ~c:6. ~rng:(rng ()));
       false
     with Invalid_argument _ -> true)

let test_staircase_is_khist () =
  let p = Families.staircase ~n:100 ~k:5 ~rng:(rng ()) in
  Alcotest.(check bool) "at most 5 pieces" true
    (Khist.pieces_of_pmf p <= 5)

let test_random_khist_pieces () =
  let p = Families.random_khist ~n:64 ~k:6 ~rng:(rng ()) in
  Alcotest.(check bool) "at most 6 pieces" true (Khist.pieces_of_pmf p <= 6)

let test_comb_pieces () =
  let p = Families.comb ~n:64 ~teeth:4 in
  Alcotest.(check int) "8 pieces" 8 (Khist.pieces_of_pmf p)

let test_mixture () =
  let a = Pmf.point_mass ~n:2 0 and b = Pmf.point_mass ~n:2 1 in
  let m = Families.mixture [ (1., a); (3., b) ] in
  Alcotest.(check (float 1e-12)) "weights normalized" 0.75 (Pmf.get m 1)

let test_spiked_support () =
  let p = Families.spiked ~n:50 ~spikes:3 ~spike_mass:0.5 ~rng:(rng ()) in
  Alcotest.(check int) "full support" 50 (Pmf.support_size p);
  (* Exactly 3 elements carry extra mass. *)
  let heavy =
    Array.to_list (Pmf.to_array p)
    |> List.filter (fun x -> x > 0.02)
    |> List.length
  in
  Alcotest.(check int) "spikes" 3 heavy

let test_geometric_and_monotone_shapes () =
  let spec s = Result.get_ok (Families.of_spec ~n:20 ~rng:(rng ()) s) in
  let g = spec "geometric:0.7" and m = spec "monotone:1.5" in
  let decreasing p =
    let a = Pmf.to_array p in
    let ok = ref true in
    for i = 1 to Array.length a - 1 do
      if a.(i) > a.(i - 1) +. 1e-15 then ok := false
    done;
    !ok
  in
  Alcotest.(check bool) "geometric decreasing" true (decreasing g);
  Alcotest.(check bool) "monotone decreasing" true (decreasing m)

let test_bimodal_modality () =
  let p = Families.bimodal ~n:128 in
  Alcotest.(check bool) "has >= 2 direction changes" true
    (Modal.direction_changes p >= 2)

(* --- Ops --- *)

let test_permute_preserves_distances () =
  let n = 32 in
  let a = Families.zipf ~n ~s:1. and b = Pmf.uniform n in
  let sigma = Randkit.Sampler.permutation (rng ()) n in
  let a' = Ops.permute a sigma and b' = Ops.permute b sigma in
  Alcotest.(check (float 1e-12)) "tv invariant" (Distance.tv a b)
    (Distance.tv a' b')

let test_permute_moves_mass () =
  let p = Pmf.point_mass ~n:4 0 in
  let sigma = [| 2; 0; 1; 3 |] in
  let q = Ops.permute p sigma in
  Alcotest.(check (float 0.)) "mass moved to sigma(0)" 1. (Pmf.get q 2)

let test_embed () =
  let p = Pmf.create [| 0.5; 0.5 |] in
  let q = Ops.embed p ~n:5 in
  Alcotest.(check int) "size" 5 (Pmf.size q);
  Alcotest.(check (float 0.)) "zero tail" 0. (Pmf.get q 4);
  Alcotest.(check (float 0.)) "head kept" 0.5 (Pmf.get q 1)

let test_flatten () =
  let p = Pmf.create [| 0.4; 0.; 0.3; 0.3 |] in
  let part = Partition.of_breakpoints ~n:4 [ 2 ] in
  let f = Ops.flatten p part in
  Alcotest.(check (float 1e-12)) "cell average" 0.2 (Pmf.get f 0);
  Alcotest.(check (float 1e-12)) "cell average 2" 0.3 (Pmf.get f 3);
  Alcotest.(check bool) "member of H_2" true (Khist.is_k_histogram f ~k:2)

let test_flatten_outside () =
  let p = Pmf.create [| 0.4; 0.; 0.3; 0.3 |] in
  let part = Partition.of_breakpoints ~n:4 [ 2 ] in
  let f = Ops.flatten_outside p part ~keep_cells:[| true; false |] in
  Alcotest.(check (float 1e-12)) "kept cell untouched" 0.4 (Pmf.get f 0);
  Alcotest.(check (float 1e-12)) "other cell flattened" 0.3 (Pmf.get f 2)

let test_condition_on () =
  let p = Pmf.create [| 0.1; 0.3; 0.6 |] in
  let c = Ops.condition_on p (iv 1 3) in
  Alcotest.(check int) "size" 2 (Pmf.size c);
  Alcotest.(check (float 1e-12)) "renormalized" (1. /. 3.) (Pmf.get c 0)

let test_pad_with_heavy_point () =
  let p = Pmf.uniform 4 in
  let q = Ops.pad_with_heavy_point p ~weight:0.6 in
  Alcotest.(check int) "size" 5 (Pmf.size q);
  Alcotest.(check (float 1e-12)) "heavy point" 0.6 (Pmf.get q 4);
  Alcotest.(check (float 1e-12)) "scaled" 0.1 (Pmf.get q 0)

(* --- Empirical --- *)

let test_counts_of_samples () =
  let c = Empirical.counts_of_samples ~n:4 [| 0; 1; 1; 3; 3; 3 |] in
  Alcotest.(check (array int)) "counts" [| 1; 2; 0; 3 |] c

let test_of_counts () =
  let p = Empirical.of_counts [| 1; 3 |] in
  Alcotest.(check (float 1e-12)) "freq" 0.75 (Pmf.get p 1)

let test_add_one_histogram () =
  let part = Partition.of_breakpoints ~n:4 [ 2 ] in
  let p = Empirical.add_one_histogram part ~counts:[| 3; 1 |] ~total:4 in
  (* (3+1)/(4+2)/2 = 1/3 per element on the first cell. *)
  Alcotest.(check (float 1e-12)) "laplace level" (1. /. 3.) (Pmf.get p 0);
  Alcotest.(check (float 1e-12)) "second cell" (1. /. 6.) (Pmf.get p 2);
  Alcotest.(check bool) "strictly positive" true (Pmf.min_nonzero p > 0.)

let prop_empirical_converges =
  QCheck.Test.make ~name:"empirical tv shrinks with more samples" ~count:20
    (QCheck.int_range 4 64)
    (fun n ->
      let r = rng () in
      let p = Families.zipf ~n ~s:1. in
      let o = Poissonize.of_pmf r p in
      let small = Empirical.of_counts (o.Poissonize.exact 100) in
      let large = Empirical.of_counts (o.Poissonize.exact 100_000) in
      Distance.tv large p <= Distance.tv small p +. 0.05)



let test_map_weights () =
  let p = Pmf.create [| 0.25; 0.75 |] in
  (* Double element 0's weight and renormalize: 0.5/1.25, 0.75/1.25. *)
  let q = Pmf.map_weights p (fun i w -> if i = 0 then 2. *. w else w) in
  Alcotest.(check (float 1e-12)) "reweighted" (0.5 /. 1.25) (Pmf.get q 0)

let test_unsafe_array_is_shared () =
  let p = Pmf.create [| 0.5; 0.5 |] in
  Alcotest.(check bool) "same storage" true
    (Pmf.unsafe_array p == Pmf.unsafe_array p);
  Alcotest.(check bool) "to_array copies" true
    (not (Pmf.to_array p == Pmf.unsafe_array p))

let test_flatten_outside_mask_mismatch () =
  let p = Pmf.uniform 4 in
  let part = Partition.of_breakpoints ~n:4 [ 2 ] in
  Alcotest.(check bool) "bad mask" true
    (try
       ignore (Ops.flatten_outside p part ~keep_cells:[| true |]);
       false
     with Invalid_argument _ -> true)

let test_condition_on_zero_mass () =
  let p = Pmf.create [| 1.; 0.; 0. |] in
  Alcotest.(check bool) "zero mass" true
    (try
       ignore (Ops.condition_on p (iv 1 3));
       false
     with Invalid_argument _ -> true)

(* --- metric properties (qcheck) --- *)

let random_pmf_gen =
  QCheck.Gen.(
    int_range 2 32 >>= fun n ->
    array_size (return n) (float_bound_inclusive 5.) >|= fun w ->
    let w = Array.map (fun x -> Float.abs x +. 0.01) w in
    Pmf.of_weights w)

let arb_pmf = QCheck.make random_pmf_gen

let prop_tv_triangle =
  QCheck.Test.make ~name:"tv satisfies the triangle inequality" ~count:200
    (QCheck.triple arb_pmf arb_pmf arb_pmf)
    (fun (a, b, c) ->
      QCheck.assume (Pmf.size a = Pmf.size b && Pmf.size b = Pmf.size c);
      Distance.tv a c <= Distance.tv a b +. Distance.tv b c +. 1e-9)

let prop_hellinger_triangle =
  QCheck.Test.make ~name:"hellinger satisfies the triangle inequality"
    ~count:200
    (QCheck.triple arb_pmf arb_pmf arb_pmf)
    (fun (a, b, c) ->
      QCheck.assume (Pmf.size a = Pmf.size b && Pmf.size b = Pmf.size c);
      Distance.hellinger a c
      <= Distance.hellinger a b +. Distance.hellinger b c +. 1e-9)

let prop_chi2_dominates_tv =
  QCheck.Test.make ~name:"chi2 >= (2 tv)^2 (Cauchy-Schwarz)" ~count:200
    (QCheck.pair arb_pmf arb_pmf)
    (fun (a, b) ->
      QCheck.assume (Pmf.size a = Pmf.size b);
      let t = 2. *. Distance.tv a b in
      Distance.chi2 a ~against:b >= (t *. t) -. 1e-9)

let prop_hellinger_tv_sandwich =
  QCheck.Test.make ~name:"h^2 <= tv <= sqrt(2) h" ~count:200
    (QCheck.pair arb_pmf arb_pmf)
    (fun (a, b) ->
      QCheck.assume (Pmf.size a = Pmf.size b);
      let h = Distance.hellinger a b and t = Distance.tv a b in
      (h *. h) -. 1e-9 <= t && t <= (sqrt 2. *. h) +. 1e-9)

let prop_tv_bounds =
  QCheck.Test.make ~name:"0 <= tv <= 1" ~count:200
    (QCheck.pair arb_pmf arb_pmf)
    (fun (a, b) ->
      QCheck.assume (Pmf.size a = Pmf.size b);
      let t = Distance.tv a b in
      t >= -1e-12 && t <= 1. +. 1e-12)

(* --- alias batch paths (qcheck) --- *)

let gen_seed = QCheck.int_range 0 10_000

let prop_draw_counts_sums_to_m =
  QCheck.Test.make ~name:"draw_counts sums to m" ~count:100
    (QCheck.pair arb_pmf (QCheck.int_range 0 2000))
    (fun (p, m) ->
      let a = Alias.of_pmf p in
      let counts = Alias.draw_counts a (Randkit.Rng.create ~seed:42) m in
      Array.length counts = Pmf.size p
      && Array.for_all (fun c -> c >= 0) counts
      && Array.fold_left ( + ) 0 counts = m)

let prop_draw_many_is_fold_of_draw =
  QCheck.Test.make ~name:"draw_many = m successive draws (copied rng)"
    ~count:100
    (QCheck.triple arb_pmf (QCheck.int_range 0 500) gen_seed)
    (fun (p, m, seed) ->
      let a = Alias.of_pmf p in
      let r1 = Randkit.Rng.create ~seed in
      let r2 = Randkit.Rng.copy r1 in
      let batch = Alias.draw_many a r1 m in
      let one_by_one = Array.init m (fun _ -> Alias.draw a r2) in
      batch = one_by_one)

let prop_draw_counts_is_fold_of_draw =
  QCheck.Test.make ~name:"draw_counts = counts of m successive draws"
    ~count:100
    (QCheck.triple arb_pmf (QCheck.int_range 0 500) gen_seed)
    (fun (p, m, seed) ->
      let a = Alias.of_pmf p in
      let r1 = Randkit.Rng.create ~seed in
      let r2 = Randkit.Rng.copy r1 in
      let batch = Alias.draw_counts a r1 m in
      let counts = Array.make (Pmf.size p) 0 in
      for _ = 1 to m do
        let i = Alias.draw a r2 in
        counts.(i) <- counts.(i) + 1
      done;
      batch = counts)

(* The [_into] variants must be drop-in replacements: identical results
   *and* identical RNG stream consumption, so a trial that switches to the
   workspace path reproduces the allocating path bit for bit. *)

let prop_draw_counts_into_same_stream =
  QCheck.Test.make ~name:"draw_counts_into = draw_counts (same stream)"
    ~count:100
    (QCheck.triple arb_pmf (QCheck.int_range 0 500) gen_seed)
    (fun (p, m, seed) ->
      let a = Alias.of_pmf p in
      let r1 = Randkit.Rng.create ~seed in
      let r2 = Randkit.Rng.copy r1 in
      let alloc = Alias.draw_counts a r1 m in
      let counts = Array.make (Pmf.size p) (-1) in
      Alias.draw_counts_into a r2 ~counts m;
      alloc = counts
      (* Same rng state afterwards: the next draw agrees too. *)
      && Alias.draw a r1 = Alias.draw a r2)

let prop_draw_many_into_same_stream =
  QCheck.Test.make ~name:"draw_many_into = draw_many (same stream)"
    ~count:100
    (QCheck.triple arb_pmf (QCheck.int_range 0 500) gen_seed)
    (fun (p, m, seed) ->
      let a = Alias.of_pmf p in
      let r1 = Randkit.Rng.create ~seed in
      let r2 = Randkit.Rng.copy r1 in
      let alloc = Alias.draw_many a r1 m in
      (* Oversized buffer: only the first m slots may be written. *)
      let out = Array.make (m + 3) (-1) in
      Alias.draw_many_into a r2 ~out m;
      Array.sub out 0 m = alloc
      && Array.sub out m 3 = [| -1; -1; -1 |]
      && Alias.draw a r1 = Alias.draw a r2)

let prop_split_tree_counts_sum =
  QCheck.Test.make ~name:"split tree counts: in-range, sum to m" ~count:100
    (QCheck.triple arb_pmf (QCheck.int_range 0 2000) gen_seed)
    (fun (p, m, seed) ->
      let t = Split_tree.of_pmf p in
      let counts = Split_tree.draw_counts t (Randkit.Rng.create ~seed) m in
      Array.length counts = Pmf.size p
      && Array.for_all (fun c -> c >= 0) counts
      && Array.fold_left ( + ) 0 counts = m)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "distrib"
    [
      ( "pmf",
        [
          Alcotest.test_case "create valid" `Quick test_pmf_create_valid;
          Alcotest.test_case "create invalid" `Quick test_pmf_create_invalid;
          Alcotest.test_case "of_weights" `Quick test_pmf_of_weights;
          Alcotest.test_case "mass and support" `Quick test_pmf_mass_and_support;
          Alcotest.test_case "cdf" `Quick test_pmf_cdf;
          Alcotest.test_case "uniform/point" `Quick test_pmf_uniform_point;
          Alcotest.test_case "equal" `Quick test_pmf_equal;
          Alcotest.test_case "map_weights" `Quick test_map_weights;
          Alcotest.test_case "unsafe sharing" `Quick test_unsafe_array_is_shared;
        ] );
      ( "alias",
        [
          Alcotest.test_case "frequencies" `Quick test_alias_frequencies;
          Alcotest.test_case "point mass" `Quick test_alias_point_mass;
          Alcotest.test_case "draw_many" `Quick test_alias_draw_many;
          Alcotest.test_case "draw_counts vs draw distribution" `Quick
            test_draw_counts_agrees_with_draw;
          qc prop_draw_counts_sums_to_m;
          qc prop_draw_many_is_fold_of_draw;
          qc prop_draw_counts_is_fold_of_draw;
          qc prop_draw_counts_into_same_stream;
          qc prop_draw_many_into_same_stream;
        ] );
      ( "split-tree",
        [
          Alcotest.test_case "counts sum to m" `Quick test_split_tree_sums_to_m;
          Alcotest.test_case "marginal means" `Quick test_split_tree_marginals;
          Alcotest.test_case "point mass" `Quick test_split_tree_point_mass;
          Alcotest.test_case "zero-mass cells" `Quick
            test_split_tree_zero_mass_cells;
          Alcotest.test_case "size one" `Quick test_split_tree_size_one;
          Alcotest.test_case "into: same stream" `Quick
            test_split_tree_into_same_stream;
          Alcotest.test_case "into: zeroes buffer" `Quick
            test_split_tree_into_zeroes_buffer;
          Alcotest.test_case "invalid arguments" `Quick test_split_tree_invalid;
          qc prop_split_tree_counts_sum;
        ] );
      ( "distance",
        [
          Alcotest.test_case "identical" `Quick test_distance_identical;
          Alcotest.test_case "uniform vs point" `Quick test_distance_uniform_point;
          Alcotest.test_case "closed form" `Quick test_distance_closed_form;
          Alcotest.test_case "symmetry" `Quick test_distance_symmetry;
          Alcotest.test_case "tv mask" `Quick test_tv_mask_full_is_tv;
          Alcotest.test_case "chi2 mask" `Quick test_chi2_mask;
          qc prop_restricted_sums_to_full;
        ] );
      ( "metric-properties",
        [
          qc prop_tv_triangle;
          qc prop_hellinger_triangle;
          qc prop_chi2_dominates_tv;
          qc prop_hellinger_tv_sandwich;
          qc prop_tv_bounds;
        ] );
      ( "families",
        [
          Alcotest.test_case "paninski distance" `Quick test_paninski_distance;
          Alcotest.test_case "paninski invalid" `Quick test_paninski_invalid;
          Alcotest.test_case "staircase" `Quick test_staircase_is_khist;
          Alcotest.test_case "random khist" `Quick test_random_khist_pieces;
          Alcotest.test_case "comb" `Quick test_comb_pieces;
          Alcotest.test_case "mixture" `Quick test_mixture;
          Alcotest.test_case "spiked" `Quick test_spiked_support;
          Alcotest.test_case "monotone shapes" `Quick
            test_geometric_and_monotone_shapes;
          Alcotest.test_case "bimodal" `Quick test_bimodal_modality;
        ] );
      ( "ops",
        [
          Alcotest.test_case "permute distance invariant" `Quick
            test_permute_preserves_distances;
          Alcotest.test_case "permute moves mass" `Quick test_permute_moves_mass;
          Alcotest.test_case "embed" `Quick test_embed;
          Alcotest.test_case "flatten" `Quick test_flatten;
          Alcotest.test_case "flatten outside" `Quick test_flatten_outside;
          Alcotest.test_case "condition" `Quick test_condition_on;
          Alcotest.test_case "pad heavy point" `Quick test_pad_with_heavy_point;
          Alcotest.test_case "flatten_outside mask mismatch" `Quick
            test_flatten_outside_mask_mismatch;
          Alcotest.test_case "condition zero mass" `Quick
            test_condition_on_zero_mass;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "counts" `Quick test_counts_of_samples;
          Alcotest.test_case "of_counts" `Quick test_of_counts;
          Alcotest.test_case "add-one histogram" `Quick test_add_one_histogram;
          qc prop_empirical_converges;
        ] );
    ]

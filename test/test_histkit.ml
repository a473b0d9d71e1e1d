let rng () = Randkit.Rng.create ~seed:777

(* Represented mass Σ level·|cell| of a histogram. *)
let khist_mass h =
  let part = Khist.partition h in
  Numkit.Kahan.sum_f (Khist.pieces h) (fun j ->
      Khist.level h j *. float_of_int (Interval.length (Partition.cell part j)))

(* --- Khist --- *)

let test_khist_roundtrip () =
  let p = Pmf.create [| 0.1; 0.1; 0.3; 0.3; 0.2 |] in
  let h = Khist.of_pmf p in
  Alcotest.(check int) "pieces" 3 (Khist.pieces h);
  Alcotest.(check (array (float 0.))) "roundtrip" (Pmf.to_array p)
    (Pmf.to_array (Khist.to_pmf h));
  Alcotest.(check (float 1e-12)) "total mass" 1. (khist_mass h)

let test_breakpoints_of_pmf () =
  let p = Pmf.create [| 0.1; 0.1; 0.3; 0.3; 0.2 |] in
  Alcotest.(check (list int)) "breaks" [ 2; 4 ] (Khist.breakpoints_of_pmf p);
  Alcotest.(check int) "pieces" 3 (Khist.pieces_of_pmf p)

let test_breakpoint_cells () =
  (* Breaks at 2 and 4; cells [0,3) and [3,6): 2 is interior to cell 0,
     4 is interior to cell 1. *)
  let p = Pmf.create [| 0.1; 0.1; 0.2; 0.2; 0.2; 0.2 |] in
  let p = Pmf.create (Pmf.to_array p) in
  let part = Partition.of_breakpoints ~n:6 [ 3 ] in
  let mask = Khist.breakpoint_cells p part in
  Alcotest.(check (array bool)) "cell 0 contaminated" [| true; false |] mask;
  (* A break exactly on a cell boundary contaminates nobody. *)
  let q = Pmf.create [| 0.1; 0.1; 0.1; 0.7 /. 3.; 0.7 /. 3.; 0.7 /. 3. |] in
  let mask2 = Khist.breakpoint_cells q part in
  Alcotest.(check (array bool)) "boundary break is clean" [| false; false |]
    mask2

let test_flatten_pmf_khist () =
  let p = Families.zipf ~n:12 ~s:1. in
  let part = Partition.equal_width ~n:12 ~cells:3 in
  let h = Khist.flatten_pmf p part in
  Alcotest.(check int) "pieces" 3 (Khist.pieces h);
  Alcotest.(check (float 1e-9)) "mass preserved" 1. (khist_mass h)

let test_khist_make_invalid () =
  let part = Partition.trivial ~n:4 in
  Alcotest.(check bool) "wrong level count" true
    (try
       ignore (Khist.make part [| 0.1; 0.1 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative level" true
    (try
       ignore (Khist.make part [| -0.25 |]);
       false
     with Invalid_argument _ -> true)

(* --- Construct --- *)

let test_equi_width () =
  let p = Families.zipf ~n:20 ~s:1. in
  let h = Construct.equi_width p ~k:4 in
  Alcotest.(check int) "4 cells" 4 (Khist.pieces h);
  Alcotest.(check (float 1e-9)) "mass 1" 1. (khist_mass h)

let test_equi_depth_balances () =
  let p = Families.zipf ~n:100 ~s:1.5 in
  let h = Construct.equi_depth p ~k:5 in
  Alcotest.(check (float 1e-9)) "mass 1" 1. (khist_mass h);
  (* Every bucket of the original pmf holds at most ~one quantile step plus
     a heavy element. *)
  let part = Khist.partition h in
  Partition.iteri
    (fun _ cell ->
      let mass = Pmf.mass_on p cell in
      Alcotest.(check bool) "no bucket overfull" true
        (mass <= 0.2 +. Pmf.get p (Interval.lo cell) +. 1e-9))
    part

(* Brute-force optimal weighted SSE segmentation for small inputs. *)
let brute_sse ~values ~weights ~k =
  let n = Array.length values in
  let seg_cost l r =
    let w = ref 0. and s = ref 0. and ss = ref 0. in
    for i = l to r do
      w := !w +. weights.(i);
      s := !s +. (values.(i) *. weights.(i));
      ss := !ss +. (values.(i) *. values.(i) *. weights.(i))
    done;
    if !w <= 0. then 0. else Float.max 0. (!ss -. (!s *. !s /. !w))
  in
  let best = ref infinity in
  let rec go start pieces_left cost =
    if start = n then (if cost < !best then best := cost)
    else if pieces_left = 0 then ()
    else
      for stop = start to n - 1 do
        go (stop + 1) (pieces_left - 1) (cost +. seg_cost start stop)
      done
  in
  go 0 k 0.;
  !best

let prop_v_optimal_matches_brute =
  QCheck.Test.make ~name:"v_optimal_cells equals brute force" ~count:100
    QCheck.(
      pair (int_range 1 4)
        (list_of_size (Gen.int_range 1 8) (float_bound_inclusive 5.)))
    (fun (k, vs) ->
      let values = Array.of_list (List.map Float.abs vs) in
      let weights = Array.make (Array.length values) 1. in
      let got, _ = Construct.v_optimal_cells ~values ~weights ~k in
      let want = brute_sse ~values ~weights ~k in
      Float.abs (got -. want) < 1e-9)

let test_v_optimal_structure () =
  let p = Families.staircase ~n:40 ~k:4 ~rng:(rng ()) in
  let h = Construct.v_optimal p ~k:4 in
  (* An exactly-4-piece input is fit perfectly by 4 pieces. *)
  Alcotest.(check (float 1e-9)) "perfect fit" 0.
    (Distance.tv (Khist.to_pmf h) p)

let test_v_optimal_beats_equi_width () =
  let p = Families.random_khist ~n:64 ~k:5 ~rng:(rng ()) in
  let sse h =
    let q = Khist.to_pmf h in
    Numkit.Kahan.sum_f 64 (fun i ->
        let d = Pmf.get p i -. Pmf.get q i in
        d *. d)
  in
  Alcotest.(check bool) "v-opt at least as good" true
    (sse (Construct.v_optimal p ~k:5) <= sse (Construct.equi_width p ~k:5) +. 1e-12)

let test_greedy_merge_pieces () =
  let p = Families.zipf ~n:50 ~s:1. in
  let h = Construct.greedy_merge p ~k:6 in
  Alcotest.(check bool) "at most 6 pieces" true (Khist.pieces h <= 6);
  Alcotest.(check (float 1e-9)) "mass preserved" 1. (khist_mass h)

let test_greedy_merge_exact_input () =
  let p = Families.staircase ~n:32 ~k:4 ~rng:(rng ()) in
  let h = Construct.greedy_merge p ~k:4 in
  Alcotest.(check (float 1e-9)) "recovers the staircase" 0.
    (Distance.tv (Khist.to_pmf h) p)

let prop_greedy_merge_segments =
  QCheck.Test.make ~name:"greedy segments tile the cell range" ~count:100
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (Gen.int_range 1 12) (float_bound_inclusive 3.)))
    (fun (k, vs) ->
      let values = Array.of_list (List.map Float.abs vs) in
      let weights = Array.make (Array.length values) 1. in
      let segs = Construct.greedy_merge_cells ~values ~weights ~k in
      let expected_count = min k (Array.length values) in
      List.length segs = expected_count
      && fst (List.hd segs) = 0
      && snd (List.nth segs (List.length segs - 1)) = Array.length values
      && List.for_all2
           (fun (_, hi) (lo, _) -> hi = lo)
           (List.filteri (fun i _ -> i < List.length segs - 1) segs)
           (List.tl segs))

(* --- Closest --- *)

let prop_closest_matches_brute =
  QCheck.Test.make ~name:"closest-H_k DP equals brute force" ~count:150
    QCheck.(
      triple (int_range 1 4)
        (list_of_size (Gen.int_range 2 9) (float_bound_inclusive 5.))
        (list_of_size (Gen.int_range 2 9) bool))
    (fun (k, vs, mask_bits) ->
      let weights = List.map Float.abs vs in
      let n = List.length weights in
      let pmf = Pmf.of_weights (Array.of_list (List.map (( +. ) 0.01) weights)) in
      let mask = Array.init n (fun i -> List.nth_opt mask_bits i <> Some false) in
      let got = Closest.l1_to_hk ~mask pmf ~k in
      (* Brute force shares no code with the DP (Wmedian heaps vs the
         rank-index oracle), so agreement is to rounding, not bitwise. *)
      let want = Refkit.Closest_brute.l1 ~mask pmf ~k in
      Float.abs (got -. want) < 1e-12)

(* The contract of Refkit.Closest_dense: on every input the fast path and the
   dense K^2 reference return the same cost float for float AND the same
   piece starts (both break argmin ties leftmost).  Larger domains than
   the brute-force prop — the dense DP is quadratic, not exponential.
   Random pmfs are value-non-monotone, so this pins the row-scan branch
   of fit_cells. *)
let prop_closest_fast_equals_dense =
  QCheck.Test.make ~name:"fast DP bitwise equals dense DP (scan path)"
    ~count:200
    QCheck.(
      triple (int_range 1 6)
        (list_of_size (Gen.int_range 2 28) (float_bound_inclusive 5.))
        (list_of_size (Gen.int_range 2 28) bool))
    (fun (k, vs, mask_bits) ->
      let weights = List.map Float.abs vs in
      let n = List.length weights in
      let pmf = Pmf.of_weights (Array.of_list (List.map (( +. ) 0.01) weights)) in
      let mask = Array.init n (fun i -> List.nth_opt mask_bits i <> Some false) in
      let cells = Closest.cells_of_pmf ~mask pmf in
      let cost_fast, starts_fast = Closest.fit_cells cells ~k in
      let cost_dense, starts_dense = Refkit.Closest_dense.fit_cells cells ~k in
      Float.equal cost_fast cost_dense
      && List.equal Int.equal starts_fast starts_dense)

(* Same contract on value-SORTED cells (weights random, some zero): the
   weighted-L1 cost is concave-Monge there, so this pins the
   divide-and-conquer branch of fit_cells against the dense scan. *)
let prop_closest_dc_equals_dense =
  QCheck.Test.make ~name:"fast DP bitwise equals dense DP (d&c path)"
    ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size
           (Gen.int_range 1 28)
           (pair (float_bound_inclusive 5.) (float_bound_inclusive 3.))))
    (fun (k, pts) ->
      let values = List.map fst pts |> List.sort Float.compare in
      let cells =
        List.map2
          (fun v (_, w) ->
            let w = if w < 0.3 then 0. else Float.abs w in
            { Closest.value = v; weight = w })
          values pts
        |> Array.of_list
      in
      let cost_fast, starts_fast = Closest.fit_cells cells ~k in
      let cost_dense, starts_dense = Refkit.Closest_dense.fit_cells cells ~k in
      Float.equal cost_fast cost_dense
      && List.equal Int.equal starts_fast starts_dense)

(* The cells Algorithm 1's checking step fits at n = 2^16, k = 4: a
   learned D-hat over an ApproxPart partition (K ~ 626), masked by the
   sieve. *)
let learned_cells () =
  let module H = Histotest in
  let n = 1 lsl 16 and k = 4 and eps = 0.25 in
  let config = H.Config.default in
  let d = Families.staircase ~n ~k ~rng:(Randkit.Rng.create ~seed:1) in
  let o = Poissonize.counts_of_tree (Randkit.Rng.create ~seed:3)
      (Split_tree.of_pmf d) in
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

(* A warm fit in a scratch allocates only its answer: the boxed cost, the
   pair and the k-element start list (plus the backwalk's closure), the
   same in the dev and release profiles.  Before the scratch, each call
   built a pointer wavelet tree and boxed every query's result: ~1.07 M
   minor and ~42 k major words on these cells; a fresh K-float row
   reads as K + 1 direct major words. *)
let test_closest_warm_fit_allocation () =
  let cells = learned_cells () in
  let k = 4 in
  let kk = Array.length cells in
  if kk < 500 then Alcotest.failf "only %d learned cells" kk;
  let scratch = Closest.scratch () in
  let want = Refkit.Closest_dense.fit_cells cells ~k in
  let first = Closest.fit_cells ~scratch cells ~k in
  let warm, { Refkit.Alloc.minor; direct_major; _ } =
    Refkit.Alloc.measure (fun () -> Closest.fit_cells ~scratch cells ~k)
  in
  let same (c1, s1) (c2, s2) =
    Float.equal c1 c2 && List.equal Int.equal s1 s2
  in
  Alcotest.(check bool) "first fit = dense" true (same first want);
  Alcotest.(check bool) "warm fit = dense" true (same warm want);
  Alcotest.(check (float 0.)) "direct major words" 0. direct_major;
  if minor > float_of_int ((3 * k) + 16) then
    Alcotest.failf "a warm fit allocated %.0f minor words (want <= %d)" minor
      ((3 * k) + 16)

(* [cells_of_khist] walks histogram cells, [cells_of_pmf] walks points of
   the expansion under the point mask; both must give the same cells.
   n = 8, cells [0,2) [2,3) [3,4) [4,5) [5,8) with levels a a b c c and
   keep T T F T F: the two kept a-cells merge into one run of weight 3,
   the excluded b-point stays one free cell, the excluded c-run of
   length 3 splits in two free halves. *)
let same_cells a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Closest.cell) (y : Closest.cell) ->
         Int64.equal (Int64.bits_of_float x.value) (Int64.bits_of_float y.value)
         && Int64.equal
              (Int64.bits_of_float x.weight)
              (Int64.bits_of_float y.weight))
       a b

let cells_of_expansion h ~keep =
  Closest.cells_of_pmf
    ~mask:(Partition.restrict_mask (Khist.partition h) ~keep)
    (Khist.to_pmf h)

let test_cells_of_khist_runs () =
  let part = Partition.of_breakpoints ~n:8 [ 2; 3; 4; 5 ] in
  let a = 1. /. 17. and b = 2. /. 17. and c = 3. /. 17. in
  let h = Khist.make part [| a; a; b; c; c |] in
  let keep = [| true; true; false; true; false |] in
  let got = Closest.cells_of_khist h ~keep in
  let want =
    Closest.
      [|
        { value = a; weight = 3. };
        { value = b; weight = 0. };
        { value = c; weight = 1. };
        { value = c; weight = 0. };
        { value = c; weight = 0. };
      |]
  in
  Alcotest.(check bool) "expected cells" true (same_cells got want);
  Alcotest.(check bool) "equals the expansion's" true
    (same_cells got (cells_of_expansion h ~keep))

(* The same on random histograms: few distinct levels, so equal adjacent
   levels are common, and a sieve-style keep mask with excluded runs of
   one point and of several. *)
let prop_cells_of_khist =
  QCheck.Test.make ~name:"cells_of_khist = cells_of_pmf on the expansion"
    ~count:500 (QCheck.int_range 0 1_000_000) (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let n = 1 + Randkit.Rng.int r 48 in
      let breaks =
        List.filter (fun _ -> Randkit.Rng.int r 2 = 0) (List.init (n - 1) succ)
      in
      let part = Partition.of_breakpoints ~n breaks in
      let kk = Partition.cell_count part in
      let w = Array.init kk (fun _ -> float_of_int (1 + Randkit.Rng.int r 3)) in
      let len j = float_of_int (Interval.length (Partition.cell part j)) in
      let mass = Numkit.Kahan.sum_f kk (fun j -> w.(j) *. len j) in
      let h = Khist.make part (Array.map (fun x -> x /. mass) w) in
      let keep = Array.init kk (fun _ -> Randkit.Rng.int r 3 > 0) in
      same_cells (Closest.cells_of_khist h ~keep) (cells_of_expansion h ~keep))

let test_closest_all_masked () =
  (* Fully masked domain: every cell has weight zero, any fit is free. *)
  let p = Families.zipf ~n:12 ~s:1. in
  let mask = Array.make 12 false in
  Alcotest.(check (float 0.)) "all masked" 0. (Closest.l1_to_hk ~mask p ~k:2);
  let cost, h = Closest.witness ~mask p ~k:2 in
  Alcotest.(check (float 0.)) "witness cost" 0. cost;
  Alcotest.(check bool) "witness pieces" true (Khist.pieces h <= 2)

let test_closest_single_cell () =
  (* A constant pmf compresses to one cell; any k >= 1 fits exactly and
     the sole piece starts at 0. *)
  let p = Pmf.uniform 7 in
  let cells = Closest.cells_of_pmf p in
  Alcotest.(check int) "one cell" 1 (Array.length cells);
  List.iter
    (fun k ->
      let cost, starts = Closest.fit_cells cells ~k in
      Alcotest.(check (float 0.)) "exact" 0. cost;
      Alcotest.(check (list int)) "starts" [ 0 ] starts;
      let cost_d, starts_d = Refkit.Closest_dense.fit_cells cells ~k in
      Alcotest.(check (float 0.)) "dense exact" 0. cost_d;
      Alcotest.(check (list int)) "dense starts" [ 0 ] starts_d)
    [ 1; 3 ]

let test_closest_zero_for_members () =
  let p = Families.staircase ~n:60 ~k:5 ~rng:(rng ()) in
  Alcotest.(check (float 1e-12)) "member" 0. (Closest.tv_to_hk p ~k:5);
  Alcotest.(check bool) "non-member positive" true
    (Closest.tv_to_hk p ~k:2 > 0.)

let test_closest_monotone_in_k () =
  let p = Families.zipf ~n:64 ~s:1.2 in
  let d k = Closest.tv_to_hk p ~k in
  Alcotest.(check bool) "monotone" true (d 1 >= d 2 && d 2 >= d 4 && d 4 >= d 8)

let test_closest_mask_relaxes () =
  let p = Families.comb ~n:32 ~teeth:4 in
  let full = Closest.tv_to_hk p ~k:2 in
  let mask = Array.init 32 (fun i -> i < 16) in
  let half = Closest.tv_to_hk ~mask p ~k:2 in
  Alcotest.(check bool) "masked distance is smaller" true (half <= full +. 1e-12)

let test_closest_witness () =
  let p = Families.zipf ~n:40 ~s:1. in
  let k = 3 in
  let cost, h = Closest.witness p ~k in
  Alcotest.(check bool) "witness piece count" true (Khist.pieces h <= k);
  (* The witness achieves the DP cost.  (It is a best L1 fit, not a
     normalized distribution, so it is evaluated pointwise.) *)
  let realized =
    let hp = Khist.partition h and lv = Khist.levels h in
    let acc = ref 0. in
    for i = 0 to 39 do
      acc := !acc +. Float.abs (Pmf.get p i -. lv.(Partition.find hp i))
    done;
    !acc
  in
  Alcotest.(check (float 1e-9)) "cost realized" cost realized

let test_closest_free_region_boundary () =
  (* A masked-out middle lets one piece end and another begin inside it:
     with k = 2 the fit must be perfect even though the two halves have
     different levels and the mask gap is wide. *)
  let p =
    Pmf.of_weights
      (Array.init 10 (fun i -> if i < 4 then 1. else if i >= 6 then 3. else 2.))
  in
  let mask = Array.init 10 (fun i -> i < 4 || i >= 6) in
  Alcotest.(check (float 1e-12)) "free boundary" 0.
    (Closest.l1_to_hk ~mask p ~k:2)

let test_brute_force_guard () =
  Alcotest.(check bool) "large domain rejected" true
    (try
       ignore (Refkit.Closest_brute.l1 (Pmf.uniform 32) ~k:2);
       false
     with Invalid_argument _ -> true)

(* --- Modal --- *)

let test_direction_changes () =
  Alcotest.(check int) "monotone" 0
    (Modal.direction_changes (Pmf.of_weights [| 1.; 2.; 3. |]));
  Alcotest.(check int) "unimodal" 1
    (Modal.direction_changes (Pmf.of_weights [| 1.; 3.; 1. |]));
  Alcotest.(check int) "zigzag" 3
    (Modal.direction_changes (Pmf.of_weights [| 1.; 3.; 1.; 3.; 1. |]));
  Alcotest.(check int) "flat is neutral" 1
    (Modal.direction_changes (Pmf.of_weights [| 1.; 3.; 3.; 1. |]))

let test_random_kmodal () =
  for k = 0 to 4 do
    let p = Modal.random_kmodal ~n:60 ~k ~rng:(rng ()) in
    Alcotest.(check bool)
      (Printf.sprintf "k=%d" k)
      true
      (Modal.direction_changes p <= k)
  done

(* Min L1 cost of a monotone fit to the whole array: the cost table's
   full-range cell. *)
let monotone_fit ?(dir = Modal.Up) values =
  (Modal.monotone_cost_table ~dir values).(0).(Array.length values - 1)

let test_monotone_fit_cost () =
  Alcotest.(check (float 1e-12)) "already monotone" 0.
    (monotone_fit [| 1.; 2.; 3. |]);
  (* [3; 1]: best nondecreasing fit is [2; 2] at cost 2. *)
  Alcotest.(check (float 1e-12)) "inversion" 2. (monotone_fit [| 3.; 1. |]);
  Alcotest.(check (float 1e-12)) "down direction" 0.
    (monotone_fit ~dir:Modal.Down [| 3.; 2.; 1. |])

(* Brute-force optimal monotone fit: candidate values = input values. *)
let brute_monotone values =
  let n = Array.length values in
  let cands = Array.copy values in
  Array.sort compare cands;
  let nc = Array.length cands in
  (* dp over positions with last chosen candidate index. *)
  let dp = Array.make nc infinity in
  for c = 0 to nc - 1 do
    dp.(c) <- Float.abs (values.(0) -. cands.(c))
  done;
  for i = 1 to n - 1 do
    let best_prefix = Array.make nc infinity in
    let running = ref infinity in
    for c = 0 to nc - 1 do
      if dp.(c) < !running then running := dp.(c);
      best_prefix.(c) <- !running
    done;
    for c = nc - 1 downto 0 do
      dp.(c) <- best_prefix.(c) +. Float.abs (values.(i) -. cands.(c))
    done
  done;
  Array.fold_left Float.min infinity dp

let prop_monotone_fit_matches_brute =
  QCheck.Test.make ~name:"heap-trick monotone fit equals DP brute force"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 12) (float_bound_inclusive 9.))
    (fun vs ->
      let values = Array.of_list (List.map Float.abs vs) in
      let got = monotone_fit values in
      let want = brute_monotone values in
      Float.abs (got -. want) < 1e-9)

let test_monotone_cost_table_consistency () =
  let values = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  let table = Modal.monotone_cost_table ~dir:Modal.Up values in
  for l = 0 to 7 do
    for r = l to 7 do
      let slice = Array.sub values l (r - l + 1) in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "cell %d %d" l r)
        (brute_monotone slice)
        table.(l).(r)
    done
  done

let test_l1_to_kmodal () =
  let mono = Pmf.of_weights [| 1.; 2.; 3.; 4. |] in
  Alcotest.(check (float 1e-12)) "monotone is 0-modal" 0.
    (Modal.l1_to_kmodal mono ~k:0);
  let zig = Pmf.of_weights [| 1.; 3.; 1.; 3.; 1. |] in
  Alcotest.(check (float 1e-12)) "zigzag is 3-modal" 0.
    (Modal.l1_to_kmodal zig ~k:3);
  Alcotest.(check bool) "zigzag is far from 1-modal" true
    (Modal.l1_to_kmodal zig ~k:1 > 0.);
  (* More allowed changes never hurts. *)
  Alcotest.(check bool) "monotone in k" true
    (Modal.l1_to_kmodal zig ~k:2 <= Modal.l1_to_kmodal zig ~k:1)


(* --- Haar --- *)

let test_haar_roundtrip () =
  let v = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  let back = Haar.inverse (Haar.transform v) in
  Array.iteri
    (fun i x -> Alcotest.(check (float 1e-9)) "roundtrip" v.(i) x)
    back

let test_haar_padding () =
  (* Non-power-of-two input is zero padded; the prefix still returns. *)
  let v = [| 1.; 2.; 3. |] in
  let back = Haar.inverse (Haar.transform v) in
  Alcotest.(check int) "padded length" 4 (Array.length back);
  for i = 0 to 2 do
    Alcotest.(check (float 1e-9)) "prefix" v.(i) back.(i)
  done;
  Alcotest.(check (float 1e-9)) "pad" 0. back.(3)

let test_haar_average () =
  let c = Haar.transform [| 2.; 4.; 6.; 8. |] in
  Alcotest.(check (float 1e-9)) "coefficient 0 is the mean" 5. c.(0)

let test_haar_top_keeps_best () =
  let v = Array.init 16 (fun i -> if i < 8 then 1. else 3.) in
  let c = Haar.transform v in
  let kept = Haar.top_coefficients ~b:2 c in
  Alcotest.(check int) "two survive" 2
    (Array.fold_left (fun n c -> if Float.equal c 0. then n else n + 1) 0 kept);
  (* A two-level step function is exactly two Haar terms. *)
  let back = Haar.inverse kept in
  Array.iteri
    (fun i x -> Alcotest.(check (float 1e-9)) "exact" v.(i) x)
    back

let test_haar_synopsis () =
  let p = Families.bimodal ~n:256 in
  let coarse = Haar.synopsis p ~b:8 in
  let fine = Haar.synopsis p ~b:64 in
  Alcotest.(check (float 1e-6)) "mass 1" 1.
    (khist_mass coarse);
  let err h = Distance.tv (Khist.to_pmf h) p in
  Alcotest.(check bool) "more terms help" true (err fine <= err coarse +. 1e-9)

(* --- end-biased --- *)

let test_end_biased_isolates_heavy () =
  let n = 64 in
  let w = Array.make n 1. in
  w.(10) <- 100.;
  w.(40) <- 80.;
  let p = Pmf.of_weights w in
  let h = Construct.end_biased p ~heavy_cutoff:0.2 ~k:8 in
  let part = Khist.partition h in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d isolated" i)
        true
        (Interval.is_singleton (Partition.cell part (Partition.find part i))))
    [ 10; 40 ];
  (* Exact on the heavy atoms. *)
  Alcotest.(check (float 1e-9)) "heavy value exact" (Pmf.get p 10)
    (Khist.level h (Partition.find part 10))

let test_end_biased_beats_equi_depth_on_spikes () =
  let n = 256 in
  let rng = Randkit.Rng.create ~seed:5 in
  let p = Families.spiked ~n ~spikes:2 ~spike_mass:0.6 ~rng in
  let err h = Distance.tv (Khist.to_pmf h) p in
  Alcotest.(check bool) "end-biased wins" true
    (err (Construct.end_biased p ~heavy_cutoff:0.05 ~k:8)
     <= err (Construct.equi_width p ~k:8) +. 1e-9)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "histkit"
    [
      ( "khist",
        [
          Alcotest.test_case "roundtrip" `Quick test_khist_roundtrip;
          Alcotest.test_case "breakpoints" `Quick test_breakpoints_of_pmf;
          Alcotest.test_case "breakpoint cells" `Quick test_breakpoint_cells;
          Alcotest.test_case "flatten" `Quick test_flatten_pmf_khist;
          Alcotest.test_case "make invalid" `Quick test_khist_make_invalid;
        ] );
      ( "construct",
        [
          Alcotest.test_case "equi width" `Quick test_equi_width;
          Alcotest.test_case "equi depth" `Quick test_equi_depth_balances;
          Alcotest.test_case "v-optimal structure" `Quick test_v_optimal_structure;
          Alcotest.test_case "v-optimal beats equi-width" `Quick
            test_v_optimal_beats_equi_width;
          Alcotest.test_case "greedy pieces" `Quick test_greedy_merge_pieces;
          Alcotest.test_case "greedy exact input" `Quick
            test_greedy_merge_exact_input;
          qc prop_v_optimal_matches_brute;
          qc prop_greedy_merge_segments;
        ] );
      ( "closest",
        [
          Alcotest.test_case "zero for members" `Quick
            test_closest_zero_for_members;
          Alcotest.test_case "monotone in k" `Quick test_closest_monotone_in_k;
          Alcotest.test_case "mask relaxes" `Quick test_closest_mask_relaxes;
          Alcotest.test_case "witness" `Quick test_closest_witness;
          Alcotest.test_case "free region boundary" `Quick
            test_closest_free_region_boundary;
          Alcotest.test_case "brute force guard" `Quick test_brute_force_guard;
          Alcotest.test_case "all masked" `Quick test_closest_all_masked;
          Alcotest.test_case "single cell" `Quick test_closest_single_cell;
          qc prop_closest_matches_brute;
          qc prop_closest_fast_equals_dense;
          qc prop_closest_dc_equals_dense;
          Alcotest.test_case "a warm fit allocates only its answer" `Quick
            test_closest_warm_fit_allocation;
          Alcotest.test_case "cells of khist" `Quick test_cells_of_khist_runs;
          qc prop_cells_of_khist;
        ] );
      ( "haar",
        [
          Alcotest.test_case "roundtrip" `Quick test_haar_roundtrip;
          Alcotest.test_case "padding" `Quick test_haar_padding;
          Alcotest.test_case "average" `Quick test_haar_average;
          Alcotest.test_case "top keeps best" `Quick test_haar_top_keeps_best;
          Alcotest.test_case "synopsis" `Quick test_haar_synopsis;
        ] );
      ( "end_biased",
        [
          Alcotest.test_case "isolates heavy" `Quick
            test_end_biased_isolates_heavy;
          Alcotest.test_case "beats equi-width on spikes" `Quick
            test_end_biased_beats_equi_depth_on_spikes;
        ] );
      ( "modal",
        [
          Alcotest.test_case "direction changes" `Quick test_direction_changes;
          Alcotest.test_case "random kmodal" `Quick test_random_kmodal;
          Alcotest.test_case "monotone fit" `Quick test_monotone_fit_cost;
          Alcotest.test_case "cost table" `Quick
            test_monotone_cost_table_consistency;
          Alcotest.test_case "l1 to kmodal" `Quick test_l1_to_kmodal;
          qc prop_monotone_fit_matches_brute;
        ] );
    ]

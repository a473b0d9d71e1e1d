let rng () = Randkit.Rng.create ~seed:4242
let iv lo hi = Interval.make ~lo ~hi

let point_mass ~n i =
  Pmf.create (Array.init n (fun j -> if j = i then 1. else 0.))

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

(* [of_pieces] fills a cell at a time and checks the mass over the
   cells: the same pmf [create] builds from the expansion, and the same
   refusals. *)
let test_pmf_of_pieces () =
  let part = Partition.of_breakpoints ~n:5 [ 2 ] in
  Alcotest.(check (array (float 0.))) "filled per cell"
    [| 0.125; 0.125; 0.25; 0.25; 0.25 |]
    (Pmf.to_array (Pmf.of_pieces part [| 0.125; 0.25 |]));
  List.iter
    (fun (label, levels) ->
      Alcotest.(check bool) (label ^ " rejected") true
        (try
           ignore (Pmf.of_pieces part levels : Pmf.t);
           false
         with Invalid_argument _ -> true))
    [
      ("bad total", [| 0.125; 0.3 |]);
      ("negative", [| 0.75; -0.1666 |]);
      ("nan", [| nan; 0.25 |]);
      ("one level short", [| 0.2 |]);
    ]

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
  Alcotest.(check int) "support_size" 3 (Pmf.support_size p)

let test_pmf_cdf () =
  let p = Pmf.create [| 0.1; 0.2; 0.7 |] in
  let c = Pmf.cdf p in
  Alcotest.(check int) "length" 4 (Array.length c);
  Alcotest.(check (float 1e-12)) "last is 1" 1. c.(3);
  Alcotest.(check (float 1e-12)) "middle" 0.3 c.(2)

let test_pmf_uniform_point () =
  let u = Pmf.uniform 4 in
  Alcotest.(check (float 1e-12)) "uniform" 0.25 (Pmf.get u 1);
  let pm = point_mass ~n:5 2 in
  Alcotest.(check (float 0.)) "point" 1. (Pmf.get pm 2);
  Alcotest.(check (float 0.)) "elsewhere" 0. (Pmf.get pm 0)

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
  let a = Alias.of_pmf (point_mass ~n:10 7) in
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

(* Alias draws pinned bit for bit, recorded when the coin was drawn
   through [Rng.float rng 1.]: single draws, a batch and a count vector
   from one generator, then its next raw word.  Every stream-oracle trial
   and every served benchmark workload is built from these draws. *)
let test_alias_draws_pinned () =
  let t = Alias.of_pmf (Families.zipf ~n:1000 ~s:1.1) in
  let r = Randkit.Rng.create ~seed:2024 in
  let digest a =
    let b = Buffer.create (8 * Array.length a) in
    Array.iter (fun x -> Buffer.add_int64_le b (Int64.of_int x)) a;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let single = Array.init 1000 (fun _ -> Alias.draw t r) in
  Alcotest.(check string) "draw" "0e1031b9c12ac33e2d0d6ba51ddd397e"
    (digest single);
  Alcotest.(check string) "draw_many" "9636d683370482f44af0739126a6f8db"
    (digest (Alias.draw_many t r 10_000));
  Alcotest.(check string) "draw_counts" "3c80de189ade15f57c000671dda56e8d"
    (digest (Alias.draw_counts t r 100_000));
  Alcotest.(check int64) "generator after" (-1659713647142664368L)
    (Randkit.Rng.bits64 r)

(* The workspace draw loops allocate nothing per draw: the coin is an
   int mantissa scaled in place.  [Rng.float rng 1.] called across the
   library boundary returned a boxed float, 2 words a draw, under dune's
   dev profile. *)
let test_alias_draw_loops_allocate_nothing () =
  let t = Alias.of_pmf (Families.zipf ~n:1000 ~s:1.1) in
  let r = rng () in
  let m = 100_000 in
  let out = Array.make m 0 and counts = Array.make 1000 0 in
  let per_draw f =
    (snd (Refkit.Alloc.measure f)).Refkit.Alloc.minor /. float_of_int m
  in
  let many = per_draw (fun () -> Alias.draw_many_into t r ~out m) in
  let counted = per_draw (fun () -> Alias.draw_counts_into t r ~counts m) in
  if many > 0.01 || counted > 0.01 then
    Alcotest.failf "words per draw: draw_many_into %.3f, draw_counts_into %.3f"
      many counted

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
  let t = Split_tree.of_pmf (point_mass ~n:10 7) in
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
  let p = point_mass ~n:4 0 in
  let t = Split_tree.of_pmf p in
  let counts = Array.make 4 99 in
  Split_tree.draw_counts_into t (rng ()) ~counts 5;
  Alcotest.(check (array int)) "stale entries cleared" [| 5; 0; 0; 0 |] counts

(* The split table and its index live in Bigarrays, outside the OCaml
   heap: building the tree adds a record and two custom blocks to the
   major heap, not the 2^16-float array a [float array] table was, nor
   the n/32-word array an on-heap index would be (2049 direct major
   words at n = 2^16).  Checked at n = 2^16 and at n = 2^20, where a
   table of a split per node was 8 MiB. *)
let test_split_tree_table_off_heap () =
  List.iter
    (fun n ->
      let p = Families.staircase ~n ~k:4 ~rng:(rng ()) in
      let t, { Refkit.Alloc.direct_major; _ } =
        Refkit.Alloc.measure (fun () -> Split_tree.of_pmf p)
      in
      if direct_major >= 1000. then
        Alcotest.failf
          "of_pmf at n = %d added %.0f direct major words (want < 1000)" n
          direct_major;
      (* Off the heap, 4 pieces cost the index (an int per 32 nodes) and
         at most 3·log₂ n splits besides the shared ½, not n floats. *)
      let levels = Float.to_int (Float.log2 (float_of_int n)) in
      let bound = 8 * ((n / 32) + 1 + (3 * levels)) in
      if Split_tree.bytes t > bound then
        Alcotest.failf "the tree at n = %d takes %d bytes (want <= %d)" n
          (Split_tree.bytes t) bound)
    [ 1 lsl 16; 1 lsl 20 ]

(* A counts-oracle draw at n = 2^16, m = 4e7 allocates nothing: the
   sampler reads each split probability from the table itself
   ([Sampler.binomial_at]) and a BTRS rejection path reads its
   log-factorials through a slot.  Handing p across the library boundary
   boxed it, 2 words a node (131k a draw); boxed [log_factorial] results
   added ~3.5 words a node more, and recursive-closure samplers drawing
   boxed floats ~45. *)
let test_split_tree_draw_allocation () =
  let n = 1 lsl 16 in
  let t = Split_tree.of_pmf (Families.staircase ~n ~k:4 ~rng:(rng ())) in
  let r = rng () in
  let counts = Array.make n 0 in
  let m = 40_000_000 in
  Split_tree.draw_counts_into t r ~counts m;
  let (), { Refkit.Alloc.minor; _ } =
    Refkit.Alloc.measure (fun () -> Split_tree.draw_counts_into t r ~counts m)
  in
  if minor > 0. then
    Alcotest.failf "a draw allocated %.0f minor words (want 0)" minor

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
  Alcotest.(check (float 1e-12)) "chi2 self" 0. (Distance.chi2 p ~against:p)

let test_distance_uniform_point () =
  let n = 10 in
  let u = Pmf.uniform n and pm = point_mass ~n 0 in
  Alcotest.(check (float 1e-12)) "tv" (1. -. (1. /. float_of_int n))
    (Distance.tv u pm);
  Alcotest.(check bool) "chi2 infinite" true
    (Distance.chi2 u ~against:pm = infinity)

let test_distance_closed_form () =
  let a = Pmf.create [| 0.5; 0.5 |] and b = Pmf.create [| 0.25; 0.75 |] in
  Alcotest.(check (float 1e-12)) "tv" 0.25 (Distance.tv a b);
  Alcotest.(check (float 1e-12)) "l1" 0.5 (Distance.l1 a b);
  (* chi2(a || b) = (0.25)^2/0.25 + (0.25)^2/0.75 = 1/4 + 1/12 = 1/3. *)
  Alcotest.(check (float 1e-12)) "chi2" (1. /. 3.) (Distance.chi2 a ~against:b)

let test_distance_symmetry () =
  let a = Families.zipf ~n:32 ~s:1.1 and b = Pmf.uniform 32 in
  Alcotest.(check (float 1e-12)) "tv symmetric" (Distance.tv a b)
    (Distance.tv b a)

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
  let a = point_mass ~n:2 0 and b = point_mass ~n:2 1 in
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
  let p = point_mass ~n:4 0 in
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
  Alcotest.(check bool) "member of H_2" true (Khist.pieces_of_pmf f <= 2)

let test_flatten_outside () =
  let p = Pmf.create [| 0.4; 0.; 0.3; 0.3 |] in
  let part = Partition.of_breakpoints ~n:4 [ 2 ] in
  let f = Ops.flatten_outside p part ~keep_cells:[| true; false |] in
  Alcotest.(check (float 1e-12)) "kept cell untouched" 0.4 (Pmf.get f 0);
  Alcotest.(check (float 1e-12)) "other cell flattened" 0.3 (Pmf.get f 2)

let test_pad_with_heavy_point () =
  let p = Pmf.uniform 4 in
  let q = Ops.pad_with_heavy_point p ~weight:0.6 in
  Alcotest.(check int) "size" 5 (Pmf.size q);
  Alcotest.(check (float 1e-12)) "heavy point" 0.6 (Pmf.get q 4);
  Alcotest.(check (float 1e-12)) "scaled" 0.1 (Pmf.get q 0)

(* --- Empirical --- *)

let test_of_counts () =
  let p = Empirical.of_counts [| 1; 3 |] in
  Alcotest.(check (float 1e-12)) "freq" 0.75 (Pmf.get p 1)

let test_add_one_histogram () =
  let part = Partition.of_breakpoints ~n:4 [ 2 ] in
  let p = Array.make 2 0. in
  Empirical.add_one_levels part ~counts:[| 3; 1 |] ~total:4 ~levels:p;
  (* (3+1)/(4+2)/2 = 1/3 per element on the first cell. *)
  Alcotest.(check (float 1e-12)) "laplace level" (1. /. 3.) p.(0);
  Alcotest.(check (float 1e-12)) "second cell" (1. /. 6.) p.(1);
  Alcotest.(check bool) "strictly positive" true
    (Array.for_all (fun x -> x > 0.) p);
  (* Counts that do not add up to [total] give levels of mass 14/6. *)
  Alcotest.(check bool) "mass checked" true
    (try
       Empirical.add_one_levels part ~counts:[| 9; 1 |] ~total:4 ~levels:p;
       false
     with Invalid_argument _ -> true)

let prop_empirical_converges =
  QCheck.Test.make ~name:"empirical tv shrinks with more samples" ~count:20
    (QCheck.int_range 4 64)
    (fun n ->
      let r = rng () in
      let p = Families.zipf ~n ~s:1. in
      let o = Refkit.Stream_trials.of_alias r (Alias.of_pmf p) in
      let small = Empirical.of_counts (o.Poissonize.exact 100) in
      let large = Empirical.of_counts (o.Poissonize.exact 100_000) in
      Distance.tv large p <= Distance.tv small p +. 0.05)


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

let prop_chi2_mask_additive =
  QCheck.Test.make ~name:"chi2_mask over complementary masks sums to chi2"
    ~count:200
    (QCheck.pair arb_pmf arb_pmf)
    (fun (a, b) ->
      QCheck.assume (Pmf.size a = Pmf.size b);
      let mask = Array.init (Pmf.size a) (fun i -> Pmf.get a i > Pmf.get b i) in
      let whole = Distance.chi2 a ~against:b in
      let parts =
        Distance.chi2_mask mask a ~against:b
        +. Distance.chi2_mask (Array.map not mask) a ~against:b
      in
      Float.abs (parts -. whole) <= 1e-9 *. Float.max 1. whole)

let prop_chi2_dominates_tv =
  QCheck.Test.make ~name:"chi2 >= (2 tv)^2 (Cauchy-Schwarz)" ~count:200
    (QCheck.pair arb_pmf arb_pmf)
    (fun (a, b) ->
      QCheck.assume (Pmf.size a = Pmf.size b);
      let t = 2. *. Distance.tv a b in
      Distance.chi2 a ~against:b >= (t *. t) -. 1e-9)

(* Hellinger distance, computed here only as an independent bound on tv. *)
let hellinger a b =
  let s = ref 0. in
  for i = 0 to Pmf.size a - 1 do
    let d = sqrt (Pmf.get a i) -. sqrt (Pmf.get b i) in
    s := !s +. (d *. d)
  done;
  sqrt (0.5 *. !s)

let prop_hellinger_tv_sandwich =
  QCheck.Test.make ~name:"h^2 <= tv <= sqrt(2) h" ~count:200
    (QCheck.pair arb_pmf arb_pmf)
    (fun (a, b) ->
      QCheck.assume (Pmf.size a = Pmf.size b);
      let h = hellinger a b and t = Distance.tv a b in
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

(* Changes of value the compact tree must store splits for: adjacent
   entries that differ, and the padding boundary when the last entry is
   nonzero and n is not a power of two. *)
let value_changes p =
  let n = Pmf.size p in
  let b = ref 0 in
  for j = 1 to n - 1 do
    if not (Float.equal (Pmf.get p (j - 1)) (Pmf.get p j)) then incr b
  done;
  let width = ref 1 and levels = ref 0 in
  while !width < n do
    width := 2 * !width;
    incr levels
  done;
  if n < !width && not (Float.equal (Pmf.get p (n - 1)) 0.) then incr b;
  (!b, !width, !levels)

(* A random pmf for the dense-reference property: n a power of two or
   not (n = 1 included), then either zipf or runs of one value each —
   single points, zero runs, and equal neighbours that merge two runs —
   with K anywhere from 1 to n. *)
let piecewise_pmf seed =
  let r = Randkit.Rng.create ~seed in
  let n =
    match Randkit.Rng.int r 4 with
    | 0 -> 1 lsl Randkit.Rng.int r 13
    | 1 -> 1
    | _ -> 1 + Randkit.Rng.int r 3000
  in
  if Randkit.Rng.int r 5 = 0 then
    Families.zipf ~n ~s:(0.5 +. Randkit.Rng.float r 1.)
  else begin
    let k = 1 + Randkit.Rng.int r n in
    let w = Array.make n 0. in
    let pos = ref 0 in
    while !pos < n do
      let len =
        if Randkit.Rng.int r 4 = 0 then 1
        else 1 + Randkit.Rng.int r (max 1 (2 * n / k))
      in
      let v =
        match Randkit.Rng.int r 4 with
        | 0 -> 0.
        | 1 -> float_of_int (1 + Randkit.Rng.int r 3)
        | _ -> Randkit.Rng.float r 10.
      in
      for i = !pos to min n (!pos + len) - 1 do
        w.(i) <- v
      done;
      pos := !pos + len
    done;
    if Array.for_all (fun x -> Float.equal x 0.) w then
      w.(Randkit.Rng.int r n) <- 1.;
    Pmf.of_weights w
  end

let prop_split_tree_matches_dense =
  QCheck.Test.make ~name:"split tree draws = dense reference, bit for bit"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      let p = piecewise_pmf seed in
      let n = Pmf.size p in
      let t = Split_tree.of_pmf p and d = Refkit.Split_tree_dense.of_pmf p in
      let r1 = Randkit.Rng.create ~seed and r2 = Randkit.Rng.create ~seed in
      let c1 = Array.make n 0 and c2 = Array.make n 0 in
      let same =
        List.for_all
          (fun m ->
            Split_tree.draw_counts_into t r1 ~counts:c1 m;
            Refkit.Split_tree_dense.draw_counts_into d r2 ~counts:c2 m;
            c1 = c2)
          [ 0; 1; 17; 1000; 100_000; 10_000_000 ]
      in
      let b, width, levels = value_changes p in
      let stored = Split_tree.stored t in
      (* Stored whole only when more than half the nodes straddle a
         change, which the bound caps at B·log₂ width. *)
      let bounded =
        stored <= b * levels
        || (stored = width - 1 && width - 1 < 2 * b * levels)
      in
      if not bounded then
        QCheck.Test.fail_reportf "n = %d: %d stored, B = %d, log2 width = %d" n
          stored b levels;
      same && Int64.equal (Randkit.Rng.bits64 r1) (Randkit.Rng.bits64 r2))

(* --- construction pins --- *)

(* Every family's pmf as float bits, pinned from the copying, boxing
   constructors the allocation-free builders replaced: the one-array
   builders must not move a single bit, or every transcript and verdict
   computed against a hypothesis could move with them.  Parameters are
   capped to n so the small domains exercise the builders; a refused
   parameter pins its error message. *)
let family_pin_specs n =
  let k = min 8 n and teeth = max 1 (min 8 (n / 2)) and spikes = min 4 n in
  [
    "uniform";
    Printf.sprintf "staircase:%d" k;
    Printf.sprintf "khist:%d" k;
    "zipf:1.2";
    "geometric:0.999";
    Printf.sprintf "comb:%d" teeth;
    "bimodal";
    "paninski:0.1";
    Printf.sprintf "spiked:%d" spikes;
    "monotone:1.5";
  ]

let float_bits_digest a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let family_pins =
  [
    (1, 1, "uniform", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 1, "staircase:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 1, "khist:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 1, "zipf:1.2", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 1, "geometric:0.999", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 1, "comb:1", "error: Families.comb: need 1 <= teeth <= n/2");
    (1, 1, "bimodal", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 1, "paninski:0.1", "error: Families.paninski: n must be even");
    (1, 1, "spiked:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 1, "monotone:1.5", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "uniform", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "staircase:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "khist:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "zipf:1.2", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "geometric:0.999", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "comb:1", "error: Families.comb: need 1 <= teeth <= n/2");
    (1, 2, "bimodal", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "paninski:0.1", "error: Families.paninski: n must be even");
    (1, 2, "spiked:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 2, "monotone:1.5", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "uniform", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "staircase:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "khist:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "zipf:1.2", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "geometric:0.999", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "comb:1", "error: Families.comb: need 1 <= teeth <= n/2");
    (1, 3, "bimodal", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "paninski:0.1", "error: Families.paninski: n must be even");
    (1, 3, "spiked:1", "e02e0d84c1f7b647c18ab9646d57ec89");
    (1, 3, "monotone:1.5", "e02e0d84c1f7b647c18ab9646d57ec89");
    (7, 1, "uniform", "c4005092425267b9227a668e6d6a739e");
    (7, 1, "staircase:7", "5799526160c355add55aa7087fc179a0");
    (7, 1, "khist:7", "f0ac86a9c2453e4f800db4df1d909320");
    (7, 1, "zipf:1.2", "10e38492c00751071a4408f5659e5cf7");
    (7, 1, "geometric:0.999", "0ee4f2cfc862da2c95aebe74abb1db45");
    (7, 1, "comb:3", "b4556c3e180ecb22b7208ceb69252aab");
    (7, 1, "bimodal", "b7a37305edacc1126fe2c52ff7b85764");
    (7, 1, "paninski:0.1", "error: Families.paninski: n must be even");
    (7, 1, "spiked:4", "6ffd308888810cd72b13aa6da3e2db4d");
    (7, 1, "monotone:1.5", "37ff58a8ab2c4cf20a64ab4fbb4f9d42");
    (7, 2, "uniform", "c4005092425267b9227a668e6d6a739e");
    (7, 2, "staircase:7", "274d4339c92cdc40a4e83007bc89c5f7");
    (7, 2, "khist:7", "d6e36d0a45651838ac54d3d8eed87476");
    (7, 2, "zipf:1.2", "10e38492c00751071a4408f5659e5cf7");
    (7, 2, "geometric:0.999", "0ee4f2cfc862da2c95aebe74abb1db45");
    (7, 2, "comb:3", "b4556c3e180ecb22b7208ceb69252aab");
    (7, 2, "bimodal", "b7a37305edacc1126fe2c52ff7b85764");
    (7, 2, "paninski:0.1", "error: Families.paninski: n must be even");
    (7, 2, "spiked:4", "f5d593183924295eb2d7d2c31cba4579");
    (7, 2, "monotone:1.5", "37ff58a8ab2c4cf20a64ab4fbb4f9d42");
    (7, 3, "uniform", "c4005092425267b9227a668e6d6a739e");
    (7, 3, "staircase:7", "dcb743dd12d9595f1ce1174e636b3130");
    (7, 3, "khist:7", "6dd0675baa4abd476c3585b655302034");
    (7, 3, "zipf:1.2", "10e38492c00751071a4408f5659e5cf7");
    (7, 3, "geometric:0.999", "0ee4f2cfc862da2c95aebe74abb1db45");
    (7, 3, "comb:3", "b4556c3e180ecb22b7208ceb69252aab");
    (7, 3, "bimodal", "b7a37305edacc1126fe2c52ff7b85764");
    (7, 3, "paninski:0.1", "error: Families.paninski: n must be even");
    (7, 3, "spiked:4", "64cdf711593074f3239f866da2a7fff6");
    (7, 3, "monotone:1.5", "37ff58a8ab2c4cf20a64ab4fbb4f9d42");
    (65536, 1, "uniform", "de848d2e579d9a06e8c7a5a1fe79c901");
    (65536, 1, "staircase:8", "16c8c27834fd092fe960ccc565ab0750");
    (65536, 1, "khist:8", "cf8b3a1ebe41bc19c71e3ea9ecf86ebe");
    (65536, 1, "zipf:1.2", "84826bb710ea2b1d292bdabb02a2d1e6");
    (65536, 1, "geometric:0.999", "e69a7b76b12464787e24a2556b189175");
    (65536, 1, "comb:8", "2b33a497779d15c68e55b655b638e68d");
    (65536, 1, "bimodal", "7174ea928550e84df9d4df18c6dcda65");
    (65536, 1, "paninski:0.1", "72a675b01d3740346bde76949426f146");
    (65536, 1, "spiked:4", "891b942fcddeca467716b062ce98d2d3");
    (65536, 1, "monotone:1.5", "9e8b075051407dfab590884e4631a787");
    (65536, 2, "uniform", "de848d2e579d9a06e8c7a5a1fe79c901");
    (65536, 2, "staircase:8", "254fe2d2d6cfda04abdcc2a6e49eb072");
    (65536, 2, "khist:8", "6ab6b0d136557ace383b5abefa5a1d3a");
    (65536, 2, "zipf:1.2", "84826bb710ea2b1d292bdabb02a2d1e6");
    (65536, 2, "geometric:0.999", "e69a7b76b12464787e24a2556b189175");
    (65536, 2, "comb:8", "2b33a497779d15c68e55b655b638e68d");
    (65536, 2, "bimodal", "7174ea928550e84df9d4df18c6dcda65");
    (65536, 2, "paninski:0.1", "9ea05e188d41b85997df7422bcaddca5");
    (65536, 2, "spiked:4", "bd5807d43849f05be9b8ea9e9976fb95");
    (65536, 2, "monotone:1.5", "9e8b075051407dfab590884e4631a787");
    (65536, 3, "uniform", "de848d2e579d9a06e8c7a5a1fe79c901");
    (65536, 3, "staircase:8", "1d191f2c3ab4d3f1fd6d6fc7f3503a25");
    (65536, 3, "khist:8", "8802b4fa6960144a7424871797b3fc36");
    (65536, 3, "zipf:1.2", "84826bb710ea2b1d292bdabb02a2d1e6");
    (65536, 3, "geometric:0.999", "e69a7b76b12464787e24a2556b189175");
    (65536, 3, "comb:8", "2b33a497779d15c68e55b655b638e68d");
    (65536, 3, "bimodal", "7174ea928550e84df9d4df18c6dcda65");
    (65536, 3, "paninski:0.1", "1a0853b0c378ca3cdbc69798a3558428");
    (65536, 3, "spiked:4", "569aa6fc5c20d94614875a438db3f263");
    (65536, 3, "monotone:1.5", "9e8b075051407dfab590884e4631a787");
  ]

let test_family_bits_pinned () =
  let got =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun seed ->
            List.map
              (fun spec ->
                let r =
                  match
                    Families.of_spec ~n ~rng:(Randkit.Rng.create ~seed) spec
                  with
                  | Ok p -> float_bits_digest (Pmf.unsafe_array p)
                  | Error e -> "error: " ^ e
                in
                (n, seed, spec, r))
              (family_pin_specs n))
          [ 1; 2; 3 ])
      [ 1; 7; 1 lsl 16 ]
  in
  Alcotest.(check int) "pin count" (List.length family_pins) (List.length got);
  List.iter2
    (fun (n, seed, spec, want) (_, _, _, r) ->
      Alcotest.(check string) (Printf.sprintf "%s n=%d seed=%d" spec n seed) want r)
    family_pins got

(* The piecewise families come back from the spec parser as their cells
   and levels, and the expansion of those pieces is the pinned pmf, bit
   for bit: the normalization over runs changes nothing. *)
let piecewise_spec spec =
  List.exists
    (fun name -> String.starts_with ~prefix:name spec)
    [ "uniform"; "staircase:"; "khist:"; "comb:" ]

let test_pieces_expand_to_pins () =
  let checked = ref 0 in
  List.iter
    (fun (n, seed, spec, want) ->
      if piecewise_spec spec then begin
        let label = Printf.sprintf "%s n=%d seed=%d" spec n seed in
        let got =
          match
            Families.hypothesis_of_spec ~n ~rng:(Randkit.Rng.create ~seed) spec
          with
          | Ok (Families.Pieces h) ->
              Alcotest.(check bool)
                (label ^ ": no more pieces than its spec") true
                (Khist.pieces h <= max 1 (2 * min 8 n));
              float_bits_digest (Pmf.unsafe_array (Khist.to_pmf h))
          | Ok (Families.Dense _) -> Alcotest.failf "%s: expanded" label
          | Error e -> "error: " ^ e
        in
        incr checked;
        Alcotest.(check string) label want got
      end)
    family_pins;
  Alcotest.(check int) "4 families x 3 sizes x 3 seeds" 36 !checked

(* The normalization's total is [Kahan.add_run] over the runs: bitwise
   the compensated sum of the expansion, for runs of any length (empty
   ones too, and one in eight up to 2^17, which cross binades) and
   levels of wildly different magnitudes, integers (comb's 3 and 1 give
   a correction of exactly 0) and levels whose last significand bit is
   set (they fall halfway between two multiples of a larger sum's
   grid). *)
let prop_run_total_is_expansion_sum =
  QCheck.Test.make ~name:"run total = Kahan.sum_array of the expansion (bits)"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let runs = 1 + Randkit.Rng.int r 12 in
      let level _ =
        match Randkit.Rng.int r 4 with
        | 0 -> float_of_int (1 + Randkit.Rng.int r 8)
        | 1 ->
            Int64.float_of_bits
              (Int64.logor 1L
                 (Int64.bits_of_float (0.05 +. Randkit.Rng.float r 1.)))
        | _ ->
            Randkit.Rng.float r 1.
            *. (10. ** float_of_int (Randkit.Rng.int r 33 - 16))
      in
      let levels = Array.init runs level in
      let lengths =
        Array.init runs (fun _ ->
            if Randkit.Rng.int r 8 = 0 then Randkit.Rng.int r ((1 lsl 17) + 1)
            else Randkit.Rng.int r 300)
      in
      let acc = Numkit.Kahan.create () in
      Array.iteri (fun j x -> Numkit.Kahan.add_run acc x lengths.(j)) levels;
      let expansion =
        Array.concat
          (Array.to_list (Array.mapi (fun j x -> Array.make lengths.(j) x) levels))
      in
      Int64.equal
        (Int64.bits_of_float (Numkit.Kahan.total acc))
        (Int64.bits_of_float (Numkit.Kahan.sum_array expansion)))

(* The four piecewise families at n = 2^22, the largest n a config may
   ask for: every level is bitwise [w /. Kahan.sum_array] of the
   expanded weights, as [Pmf.of_weights] would normalize them.  The
   weights are the ones each family draws, in its order. *)
let test_pieces_levels_at_max_n () =
  let n = 1 lsl 22 in
  let check spec weights =
    let rng = Randkit.Rng.create ~seed:5 in
    match Families.hypothesis_of_spec ~n ~rng spec with
    | Ok (Families.Pieces h) ->
        let part = Khist.partition h in
        let weights = weights (Randkit.Rng.create ~seed:5) part in
        let expansion = Array.create_float n in
        Partition.iteri
          (fun j cell ->
            Array.fill expansion (Interval.lo cell) (Interval.length cell)
              weights.(j))
          part;
        let total = Numkit.Kahan.sum_array expansion in
        Array.iteri
          (fun j w ->
            Alcotest.(check int64)
              (Printf.sprintf "%s level %d" spec j)
              (Int64.bits_of_float (w /. total))
              (Int64.bits_of_float (Khist.level h j)))
          weights
    | Ok (Families.Dense _) -> Alcotest.failf "%s: expanded" spec
    | Error e -> Alcotest.failf "%s: %s" spec e
  in
  check "uniform" (fun _ _ -> [| 1. |]);
  check "staircase:8" (fun rng _ ->
      Array.init 8 (fun _ -> 0.1 +. Randkit.Rng.float rng 1.));
  check "khist:8" (fun rng part ->
      ignore
        (Randkit.Sampler.sample_without_replacement rng ~n:(n - 1) ~k:7
          : int list);
      Array.init (Partition.cell_count part) (fun _ ->
          0.05 +. Randkit.Rng.float rng 1.));
  check "comb:8" (fun _ _ ->
      Array.init 16 (fun b -> if b mod 2 = 0 then 3. else 1.))

(* The constructors own their argument: the pmf is that array (no copy),
   and [of_weights] normalizes it in place.  A rejected array is left as
   it was. *)
let test_constructors_take_ownership () =
  let a = [| 0.25; 0.75 |] in
  Alcotest.(check bool) "create keeps the array" true
    (Pmf.unsafe_array (Pmf.create a) == a);
  let w = [| 1.; 3. |] in
  let p = Pmf.of_weights w in
  Alcotest.(check bool) "of_weights keeps the array" true (Pmf.unsafe_array p == w);
  Alcotest.(check (array (float 0.))) "normalized in place" [| 0.25; 0.75 |] w;
  let bad = [| 1.; -1. |] in
  (try ignore (Pmf.of_weights bad : Pmf.t) with Invalid_argument _ -> ());
  Alcotest.(check (array (float 0.))) "rejected array untouched" [| 1.; -1. |] bad

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "distrib"
    [
      ( "pmf",
        [
          Alcotest.test_case "create valid" `Quick test_pmf_create_valid;
          Alcotest.test_case "create invalid" `Quick test_pmf_create_invalid;
          Alcotest.test_case "of_weights" `Quick test_pmf_of_weights;
          Alcotest.test_case "of_pieces" `Quick test_pmf_of_pieces;
          Alcotest.test_case "mass and support" `Quick test_pmf_mass_and_support;
          Alcotest.test_case "cdf" `Quick test_pmf_cdf;
          Alcotest.test_case "uniform/point" `Quick test_pmf_uniform_point;
          Alcotest.test_case "unsafe sharing" `Quick test_unsafe_array_is_shared;
          Alcotest.test_case "constructors take ownership" `Quick
            test_constructors_take_ownership;
        ] );
      ( "alias",
        [
          Alcotest.test_case "frequencies" `Quick test_alias_frequencies;
          Alcotest.test_case "point mass" `Quick test_alias_point_mass;
          Alcotest.test_case "draw_many" `Quick test_alias_draw_many;
          Alcotest.test_case "draws pinned" `Quick test_alias_draws_pinned;
          Alcotest.test_case "draw loops allocate nothing" `Quick
            test_alias_draw_loops_allocate_nothing;
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
          Alcotest.test_case "table off the heap" `Quick
            test_split_tree_table_off_heap;
          Alcotest.test_case "a draw allocates nothing" `Quick
            test_split_tree_draw_allocation;
          qc prop_split_tree_counts_sum;
          qc prop_split_tree_matches_dense;
        ] );
      ( "distance",
        [
          Alcotest.test_case "identical" `Quick test_distance_identical;
          Alcotest.test_case "uniform vs point" `Quick test_distance_uniform_point;
          Alcotest.test_case "closed form" `Quick test_distance_closed_form;
          Alcotest.test_case "symmetry" `Quick test_distance_symmetry;
          Alcotest.test_case "chi2 mask" `Quick test_chi2_mask;
        ] );
      ( "metric-properties",
        [
          qc prop_tv_triangle;
          qc prop_chi2_mask_additive;
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
          Alcotest.test_case "pmf bits pinned" `Quick test_family_bits_pinned;
          Alcotest.test_case "pieces expand to the pinned bits" `Quick
            test_pieces_expand_to_pins;
          qc prop_run_total_is_expansion_sum;
          Alcotest.test_case "levels at n = 2^22 = w / sum of the expansion"
            `Quick test_pieces_levels_at_max_n;
        ] );
      ( "ops",
        [
          Alcotest.test_case "permute distance invariant" `Quick
            test_permute_preserves_distances;
          Alcotest.test_case "permute moves mass" `Quick test_permute_moves_mass;
          Alcotest.test_case "embed" `Quick test_embed;
          Alcotest.test_case "flatten" `Quick test_flatten;
          Alcotest.test_case "flatten outside" `Quick test_flatten_outside;
          Alcotest.test_case "pad heavy point" `Quick test_pad_with_heavy_point;
          Alcotest.test_case "flatten_outside mask mismatch" `Quick
            test_flatten_outside_mask_mismatch;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "of_counts" `Quick test_of_counts;
          Alcotest.test_case "add-one histogram" `Quick test_add_one_histogram;
          qc prop_empirical_converges;
        ] );
    ]

let rng () = Randkit.Rng.create ~seed:2024

(* Represented mass Σ level·|cell| of a histogram. *)
let khist_mass h =
  let part = Khist.partition h in
  Numkit.Kahan.sum_f (Khist.pieces h) (fun j ->
      Khist.level h j *. float_of_int (Interval.length (Partition.cell part j)))

(* --- Gk --- *)

let rank_range sorted x =
  (* With duplicates, any rank between #{< x} and #{<= x} is legitimate
     for x. *)
  let n = Array.length sorted in
  let count pred =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pred sorted.(mid) then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (count (fun v -> v < x), count (fun v -> v <= x))

let check_gk_on_stream name stream eps =
  let g = Gk.create ~eps in
  Array.iter (Gk.insert g) stream;
  let sorted = Array.copy stream in
  Array.sort compare sorted;
  let n = Array.length stream in
  Alcotest.(check int) (name ^ " count") n (Gk.count g);
  List.iter
    (fun q ->
      let v = Gk.quantile g q in
      let r_lo, r_hi = rank_range sorted v in
      let target = q *. float_of_int n in
      let slack = (2. *. eps *. float_of_int n) +. 1. in
      Alcotest.(check bool)
        (Printf.sprintf "%s q=%.2f rank [%d, %d] vs %.0f" name q r_lo r_hi
           target)
        true
        (float_of_int r_lo <= target +. slack
        && float_of_int r_hi >= target -. slack))
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99 ]

let test_gk_random_stream () =
  let r = rng () in
  let stream = Array.init 20_000 (fun _ -> Randkit.Rng.float r 1000.) in
  check_gk_on_stream "random" stream 0.01

let test_gk_sorted_stream () =
  let stream = Array.init 10_000 float_of_int in
  check_gk_on_stream "sorted" stream 0.02

let test_gk_reverse_sorted () =
  let stream = Array.init 10_000 (fun i -> float_of_int (10_000 - i)) in
  check_gk_on_stream "reverse" stream 0.02

let test_gk_duplicates () =
  let r = rng () in
  let stream = Array.init 10_000 (fun _ -> float_of_int (Randkit.Rng.int r 5)) in
  check_gk_on_stream "duplicates" stream 0.02

let test_gk_space () =
  let r = rng () in
  let g = Gk.create ~eps:0.01 in
  for _ = 1 to 50_000 do
    Gk.insert g (Randkit.Rng.float r 1.)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "summary size %d" (Gk.summary_size g))
    true
    (Gk.summary_size g < 2_000)

let test_gk_empty_and_invalid () =
  let g = Gk.create ~eps:0.1 in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Gk.quantile g 0.5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad eps" true
    (try
       ignore (Gk.create ~eps:0.);
       false
     with Invalid_argument _ -> true)

let test_gk_rank_bounds () =
  let g = Gk.create ~eps:0.05 in
  for i = 1 to 1000 do
    Gk.insert g (float_of_int i)
  done;
  let lo, hi = Gk.rank_bounds g 500. in
  Alcotest.(check bool)
    (Printf.sprintf "bounds [%d, %d] around 500" lo hi)
    true
    (lo <= 500 + 100 && hi >= 500 - 100 && lo <= hi)

(* --- Stream_hist --- *)

let test_stream_hist_basic () =
  let r = rng () in
  let n = 256 in
  let sh = Stream_hist.create ~n ~buckets:8 ~eps:0.01 in
  let alias = Alias.of_pmf (Families.zipf ~n ~s:1.) in
  for _ = 1 to 50_000 do
    Stream_hist.observe sh (Alias.draw alias r)
  done;
  Alcotest.(check int) "total" 50_000 (Stream_hist.total sh);
  let h = Stream_hist.current_histogram sh in
  Alcotest.(check (float 1e-6)) "mass 1" 1. (khist_mass h);
  Alcotest.(check bool) "at most 8 buckets" true (Khist.pieces h <= 8)

let test_stream_hist_equi_depth () =
  (* On a uniform stream the buckets should hold roughly equal mass. *)
  let r = rng () in
  let n = 1024 in
  let sh = Stream_hist.create ~n ~buckets:4 ~eps:0.005 in
  for _ = 1 to 100_000 do
    Stream_hist.observe sh (Randkit.Rng.int r n)
  done;
  let h = Stream_hist.current_histogram sh in
  let part = Khist.partition h in
  Partition.iteri
    (fun j cell ->
      let mass =
        Khist.level h j *. float_of_int (Interval.length cell)
      in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d mass %.3f" j mass)
        true
        (Float.abs (mass -. 0.25) < 0.05))
    part

let test_stream_hist_empty () =
  let sh = Stream_hist.create ~n:16 ~buckets:4 ~eps:0.1 in
  Alcotest.(check bool) "no data raises" true
    (try
       ignore (Stream_hist.current_histogram sh);
       false
     with Invalid_argument _ -> true)

let test_stream_hist_sketch_small () =
  let r = rng () in
  let sh = Stream_hist.create ~n:4096 ~buckets:16 ~eps:0.01 in
  for _ = 1 to 30_000 do
    Stream_hist.observe sh (Randkit.Rng.int r 4096)
  done;
  Alcotest.(check bool) "sketch stays small" true
    (Stream_hist.sketch_size sh < 2_000)

let test_stream_hist_tracks_distribution () =
  (* The streamed equi-depth histogram should be close to the offline
     equi-depth histogram of the true distribution. *)
  let r = rng () in
  let n = 512 in
  let p = Families.bimodal ~n in
  let alias = Alias.of_pmf p in
  let sh = Stream_hist.create ~n ~buckets:16 ~eps:0.005 in
  for _ = 1 to 200_000 do
    Stream_hist.observe sh (Alias.draw alias r)
  done;
  let streamed = Khist.to_pmf (Stream_hist.current_histogram sh) in
  let offline = Khist.to_pmf (Construct.equi_depth p ~k:16) in
  Alcotest.(check bool)
    (Printf.sprintf "tv %.3f" (Distance.tv streamed offline))
    true
    (Distance.tv streamed offline < 0.12)


(* --- GK bugfix pins: insert-time invariant and exact rank bounds --- *)

(* g + delta <= max(1, floor(2*eps*n)) for interior tuples after EVERY
   insert (the band used to be computed from the pre-increment count,
   letting tuples slip in one band too wide). *)
let test_gk_insert_invariant () =
  let r = rng () in
  let shapes =
    [
      ("random", Array.init 4_000 (fun _ -> Randkit.Rng.float r 1.));
      ("sorted", Array.init 4_000 float_of_int);
      ("reverse", Array.init 4_000 (fun i -> float_of_int (4_000 - i)));
      ( "duplicates",
        Array.init 4_000 (fun _ -> float_of_int (Randkit.Rng.int r 7)) );
    ]
  in
  List.iter
    (fun (name, stream) ->
      List.iter
        (fun eps ->
          let g = Gk.create ~eps in
          Array.iteri
            (fun i x ->
              Gk.insert g x;
              if not (Gk.invariant_ok g) then
                Alcotest.failf "%s eps=%g: invariant broken after insert %d"
                  name eps (i + 1))
            stream)
        [ 0.01; 0.05 ])
    shapes

let test_gk_rank_bounds_exact () =
  let g = Gk.create ~eps:0.05 in
  for i = 1 to 1000 do
    Gk.insert g (float_of_int i)
  done;
  (* Below the minimum the rank is exactly 0; at or above the maximum it
     is exactly [count]. *)
  Alcotest.(check (pair int int)) "below min" (0, 0) (Gk.rank_bounds g 0.5);
  Alcotest.(check (pair int int))
    "above max" (1000, 1000)
    (Gk.rank_bounds g 5000.);
  (* Interior queries: the bounds bracket the true rank and stay within
     the 2*eps*n width the summary promises. *)
  let width_limit = int_of_float (2. *. 0.05 *. 1000.) + 1 in
  List.iter
    (fun q ->
      let lo, hi = Gk.rank_bounds g (float_of_int q) in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d in [%d, %d]" q lo hi)
        true
        (lo <= q && q <= hi && hi - lo <= width_limit))
    [ 1; 17; 250; 500; 750; 999; 1000 ]

(* --- merge monoid --- *)

(* One QCheck seed -> a stream, a shard count and a Gk eps; sketches of
   the round-robin slices merged together must keep the GK invariant and
   bracket true ranks exactly like a single-stream sketch would. *)
let gk_merge_case seed =
  let r = Randkit.Rng.create ~seed in
  let n = 1_000 + Randkit.Rng.int r 3_000 in
  let shards = 2 + Randkit.Rng.int r 4 in
  let eps = [| 0.01; 0.02; 0.05 |].(Randkit.Rng.int r 3) in
  let stream = Array.init n (fun _ -> Randkit.Rng.float r 1.) in
  (stream, shards, eps)

let gk_of_slice stream ~shards ~offset ~eps =
  let g = Gk.create ~eps in
  let i = ref offset in
  while !i < Array.length stream do
    Gk.insert g stream.(!i);
    i := !i + shards
  done;
  g

let gk_brackets_truth g stream ~eps =
  let n = Array.length stream in
  let sorted = Array.copy stream in
  Array.sort Float.compare sorted;
  let width_limit = int_of_float (2. *. eps *. float_of_int n) + 1 in
  Gk.count g = n
  && Gk.invariant_ok g
  && List.for_all
       (fun frac ->
         let idx = int_of_float (frac *. float_of_int (n - 1)) in
         let q = sorted.(idx) in
         let r = idx + 1 in
         let lo, hi = Gk.rank_bounds g q in
         lo <= r && r <= hi && hi - lo <= width_limit)
       [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 1. ]

let prop_gk_merge_split_stream =
  QCheck.Test.make ~name:"Gk merge of split streams stays eps-valid"
    ~count:60
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let stream, shards, eps = gk_merge_case seed in
      let parts =
        Array.init shards (fun s -> gk_of_slice stream ~shards ~offset:s ~eps)
      in
      let merged =
        Array.fold_left
          (fun acc g -> match acc with None -> Some g | Some a -> Some (Gk.merge a g))
          None parts
        |> Option.get
      in
      gk_brackets_truth merged stream ~eps)

let prop_gk_merge_assoc =
  QCheck.Test.make ~name:"Gk merge associative up to the eps contract"
    ~count:40
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let stream, _, eps = gk_merge_case seed in
      let parts =
        Array.init 3 (fun s -> gk_of_slice stream ~shards:3 ~offset:s ~eps)
      in
      let l = Gk.merge (Gk.merge parts.(0) parts.(1)) parts.(2) in
      let r = Gk.merge parts.(0) (Gk.merge parts.(1) parts.(2)) in
      Gk.count l = Gk.count r
      && gk_brackets_truth l stream ~eps
      && gk_brackets_truth r stream ~eps)

let test_gk_merge_identity () =
  let r = rng () in
  let eps = 0.02 in
  let stream = Array.init 3_000 (fun _ -> Randkit.Rng.float r 1.) in
  let g = Gk.create ~eps in
  Array.iter (Gk.insert g) stream;
  let left = Gk.merge (Gk.create ~eps) g in
  let right = Gk.merge g (Gk.create ~eps) in
  Alcotest.(check bool) "empty left identity" true
    (gk_brackets_truth left stream ~eps);
  Alcotest.(check bool) "empty right identity" true
    (gk_brackets_truth right stream ~eps)

let test_gk_merge_eps_mismatch () =
  Alcotest.(check bool) "eps mismatch raises" true
    (try
       ignore (Gk.merge (Gk.create ~eps:0.01) (Gk.create ~eps:0.02));
       false
     with Invalid_argument _ -> true)

let test_stream_hist_realized_cells () =
  (* A point-mass stream collapses the equi-depth breakpoints; the
     realized partition owns up to it and the histogram stays valid. *)
  let sh = Stream_hist.create ~n:1024 ~buckets:16 ~eps:0.01 in
  for _ = 1 to 10_000 do
    Stream_hist.observe sh 37
  done;
  let realized = Partition.cell_count (Stream_hist.current_partition sh) in
  Alcotest.(check bool)
    (Printf.sprintf "realized %d < 16" realized)
    true (realized < 16);
  let h = Stream_hist.current_histogram sh in
  Alcotest.(check int) "histogram agrees" realized (Khist.pieces h);
  Alcotest.(check (float 1e-6)) "mass 1" 1. (khist_mass h)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "streamkit"
    [
      ( "gk",
        [
          Alcotest.test_case "random stream" `Quick test_gk_random_stream;
          Alcotest.test_case "sorted stream" `Quick test_gk_sorted_stream;
          Alcotest.test_case "reverse sorted" `Quick test_gk_reverse_sorted;
          Alcotest.test_case "duplicates" `Quick test_gk_duplicates;
          Alcotest.test_case "space" `Quick test_gk_space;
          Alcotest.test_case "empty/invalid" `Quick test_gk_empty_and_invalid;
          Alcotest.test_case "rank bounds" `Quick test_gk_rank_bounds;
          Alcotest.test_case "insert invariant" `Quick test_gk_insert_invariant;
          Alcotest.test_case "rank bounds exact" `Quick
            test_gk_rank_bounds_exact;
        ] );
      ( "merge",
        [
          qc prop_gk_merge_split_stream;
          qc prop_gk_merge_assoc;
          Alcotest.test_case "gk identity" `Quick test_gk_merge_identity;
          Alcotest.test_case "gk eps mismatch" `Quick
            test_gk_merge_eps_mismatch;
          Alcotest.test_case "stream_hist realized cells" `Quick
            test_stream_hist_realized_cells;
        ] );
      ( "stream_hist",
        [
          Alcotest.test_case "basic" `Quick test_stream_hist_basic;
          Alcotest.test_case "equi-depth" `Quick test_stream_hist_equi_depth;
          Alcotest.test_case "empty" `Quick test_stream_hist_empty;
          Alcotest.test_case "sketch small" `Quick test_stream_hist_sketch_small;
          Alcotest.test_case "tracks distribution" `Quick
            test_stream_hist_tracks_distribution;
        ] );
    ]

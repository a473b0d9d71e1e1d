let iv lo hi = Interval.make ~lo ~hi

(* --- Interval --- *)

let test_interval_basics () =
  let i = iv 2 5 in
  Alcotest.(check int) "lo" 2 (Interval.lo i);
  Alcotest.(check int) "hi" 5 (Interval.hi i);
  Alcotest.(check int) "length" 3 (Interval.length i);
  Alcotest.(check int) "empty" 0 (Interval.length (iv 3 3));
  Alcotest.(check bool) "singleton" true (Interval.is_singleton (iv 4 5))

let test_interval_make_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (iv 5 2))

let bounds i = (Interval.lo i, Interval.hi i)

let test_interval_relations () =
  Alcotest.(check (option (pair int int))) "overlap" (Some (3, 5))
    (Option.map bounds (Interval.intersect (iv 0 5) (iv 3 8)));
  Alcotest.(check (option (pair int int))) "touching" None
    (Option.map bounds (Interval.intersect (iv 0 3) (iv 3 6)))

let test_interval_iteration () =
  let seen = ref [] in
  Interval.iter (fun i -> seen := i :: !seen) (iv 0 3);
  Alcotest.(check (list int)) "iter" [ 2; 1; 0 ] !seen

(* --- Partition --- *)

let test_partition_of_breakpoints () =
  let p = Partition.of_breakpoints ~n:10 [ 3; 7 ] in
  Alcotest.(check int) "cells" 3 (Partition.cell_count p);
  Alcotest.(check int) "domain" 10 (Partition.domain_size p);
  Alcotest.(check (list int)) "breakpoints" [ 3; 7 ] (Partition.breakpoints p);
  Alcotest.(check (pair int int)) "cell 1" (3, 7) (bounds (Partition.cell p 1))

let test_partition_validation () =
  Alcotest.check_raises "break range"
    (Invalid_argument "Partition.of_breakpoints: break outside (0, n)")
    (fun () -> ignore (Partition.of_breakpoints ~n:10 [ 10 ]));
  Alcotest.check_raises "break at 0"
    (Invalid_argument "Partition.of_breakpoints: break outside (0, n)")
    (fun () -> ignore (Partition.of_breakpoints ~n:10 [ 0 ]))

let test_partition_trivial_singletons () =
  Alcotest.(check int) "trivial" 1 (Partition.cell_count (Partition.trivial ~n:7));
  Alcotest.(check int) "singletons" 7
    (Partition.cell_count (Partition.of_breakpoints ~n:7 [ 1; 2; 3; 4; 5; 6 ]))

let test_partition_equal_width () =
  let p = Partition.equal_width ~n:10 ~cells:3 in
  Alcotest.(check int) "cells" 3 (Partition.cell_count p);
  let total =
    List.init (Partition.cell_count p) (fun j ->
        Interval.length (Partition.cell p j))
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check int) "covers domain" 10 total

let prop_partition_find =
  QCheck.Test.make ~name:"find agrees with linear scan" ~count:200
    QCheck.(pair (int_range 2 64) (list (int_range 1 63)))
    (fun (n, breaks) ->
      let breaks = List.filter (fun b -> b > 0 && b < n) breaks in
      let p = Partition.of_breakpoints ~n breaks in
      List.for_all
        (fun x ->
          let j = Partition.find p x in
          let c = Partition.cell p j in
          Interval.lo c <= x && x < Interval.hi c)
        (List.init n (fun i -> i)))

let test_partition_find_invalid () =
  let p = Partition.trivial ~n:5 in
  Alcotest.check_raises "outside"
    (Invalid_argument "Partition.find: point outside domain") (fun () ->
      ignore (Partition.find p 5))

let test_restrict_mask () =
  let p = Partition.of_breakpoints ~n:6 [ 2; 4 ] in
  let mask = Partition.restrict_mask p ~keep:[| true; false; true |] in
  Alcotest.(check (array bool)) "point mask"
    [| true; true; false; false; true; true |]
    mask

(* --- Cover --- *)

let test_cover_mask () =
  Alcotest.(check int) "empty" 0 (Cover.of_mask [| false; false |]);
  Alcotest.(check int) "one run" 1 (Cover.of_mask [| true; true; false |]);
  Alcotest.(check int) "two runs" 2 (Cover.of_mask [| true; false; true; true |]);
  Alcotest.(check int) "all" 1 (Cover.of_mask [| true; true; true |])

let test_cover_points () =
  Alcotest.(check int) "isolated" 3 (Cover.of_points ~n:10 [ 0; 4; 8 ]);
  Alcotest.(check int) "merged" 1 (Cover.of_points ~n:10 [ 3; 4; 5 ]);
  Alcotest.(check int) "duplicates" 1 (Cover.of_points ~n:10 [ 2; 2; 3 ])

let prop_right_borders_vs_cover =
  QCheck.Test.make ~name:"cover - 1 <= right_borders <= cover" ~count:300
    QCheck.(pair (int_range 1 50) (list (int_range 0 49)))
    (fun (n, pts) ->
      let pts = List.filter (fun x -> x < n) pts in
      let c = Cover.of_points ~n pts in
      let x = Cover.right_borders ~n pts in
      x <= c && x >= c - 1)

let prop_cells_tile_domain =
  QCheck.Test.make ~name:"cells tile the domain exactly" ~count:200
    QCheck.(pair (int_range 1 128) (list (int_range 1 127)))
    (fun (n, breaks) ->
      let breaks = List.filter (fun b -> b > 0 && b < n) breaks in
      let p = Partition.of_breakpoints ~n breaks in
      let covered = Array.make n 0 in
      Partition.iteri
        (fun _ cell -> Interval.iter (fun i -> covered.(i) <- covered.(i) + 1) cell)
        p;
      Array.for_all (fun c -> c = 1) covered)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "intervals"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "make invalid" `Quick test_interval_make_invalid;
          Alcotest.test_case "relations" `Quick test_interval_relations;
          Alcotest.test_case "iteration" `Quick test_interval_iteration;
        ] );
      ( "partition",
        [
          Alcotest.test_case "of_breakpoints" `Quick
            test_partition_of_breakpoints;
          Alcotest.test_case "validation" `Quick test_partition_validation;
          Alcotest.test_case "trivial/singletons" `Quick
            test_partition_trivial_singletons;
          Alcotest.test_case "equal width" `Quick test_partition_equal_width;
          Alcotest.test_case "find invalid" `Quick test_partition_find_invalid;
          Alcotest.test_case "restrict mask" `Quick test_restrict_mask;
          qc prop_partition_find;
          qc prop_cells_tile_domain;
        ] );
      ( "cover",
        [
          Alcotest.test_case "mask" `Quick test_cover_mask;
          Alcotest.test_case "points" `Quick test_cover_points;
          qc prop_right_borders_vs_cover;
        ] );
    ]

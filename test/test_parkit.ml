(* Parkit pool semantics: ordered deterministic results, sequential
   degeneration, nesting, and error propagation.  The statistical
   determinism of the harness on top of it is covered in test_statkit. *)

let test_create_invalid () =
  Alcotest.(check bool) "jobs <= 0 rejected" true
    (try
       Parkit.Pool.with_pool ~jobs:0 (fun _ -> false)
     with Invalid_argument _ -> true)

(* More jobs than the runtime has domains is refused before any domain
   starts: the body never runs, and a pool opened next still works. *)
let test_create_above_limit () =
  List.iter
    (fun jobs ->
      match Parkit.Pool.with_pool ~jobs (fun _ -> Alcotest.fail "body ran") with
      | () -> Alcotest.failf "jobs = %d accepted" jobs
      | exception Invalid_argument _ -> ())
    [ Parkit.Pool.max_jobs + 1; 99999999999999; max_int ];
  Alcotest.(check (array int)) "a pool opened next" [| 0; 1; 2 |]
    (Parkit.Pool.with_pool ~jobs:2 (fun pool ->
         Parkit.Pool.init pool 3 Fun.id))

let test_no_gc_policy () =
  (* The pool changes no GC setting: a batch on two domains leaves the
     caller's minor heap as it found it.  Start from the runtime's
     default size so an enlarging pool could not hide behind an earlier
     test's setting. *)
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 256 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set saved) @@ fun () ->
  Parkit.Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Parkit.Pool.init pool 64 (fun i -> Array.make 16 i)));
  Alcotest.(check int) "minor heap words unchanged" (256 * 1024)
    (Gc.get ()).Gc.minor_heap_size

let test_default_grain () =
  (* ~4 claim rounds per domain, never below 1. *)
  Alcotest.(check int) "100/4 jobs" 6
    (Parkit.Pool.default_grain ~jobs:4 ~total:100);
  Alcotest.(check int) "small batch floors at 1" 1
    (Parkit.Pool.default_grain ~jobs:8 ~total:5);
  Alcotest.(check int) "sequential takes everything" 40
    (Parkit.Pool.default_grain ~jobs:1 ~total:40);
  Alcotest.(check int) "empty batch" 1
    (Parkit.Pool.default_grain ~jobs:4 ~total:0)

let test_map_matches_array_map () =
  let input = Array.init 97 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Parkit.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d" jobs)
            expected
            (Parkit.Pool.map pool f input)))
    [ 1; 2; 4 ]

let test_grain_does_not_change_results () =
  (* At 4 jobs the batch size picks the chunk: 5 indices claim one at a
     time, 53 three at a time, 1000 sixty-two at a time.  Every shape
     must give Array.map. *)
  let f x = (3 * x) - 7 in
  Parkit.Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun total ->
          let input = Array.init total (fun i -> i) in
          Alcotest.(check (array int))
            (Printf.sprintf "total=%d map" total)
            (Array.map f input)
            (Parkit.Pool.map pool f input);
          Alcotest.(check (array int))
            (Printf.sprintf "total=%d init" total)
            (Array.init total (fun i -> i * i))
            (Parkit.Pool.init pool total (fun i -> i * i)))
        [ 5; 53; 1000 ])

let test_init_ordered () =
  Parkit.Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (array int))
        "init is index order" [| 0; 10; 20; 30; 40 |]
        (Parkit.Pool.init pool 5 (fun i -> 10 * i)))

let test_empty_and_singleton () =
  Parkit.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||]
        (Parkit.Pool.map pool (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 7 |]
        (Parkit.Pool.init pool 1 (fun _ -> 7)))

let test_map_effects_visible () =
  (* map's join is a barrier: every effect of f is visible after it
     returns, and disjoint-index writes from parallel tasks all land. *)
  List.iter
    (fun jobs ->
      Parkit.Pool.with_pool ~jobs (fun pool ->
          let n = 1_000 in
          let src = Array.init n (fun i -> i) in
          let dst = Array.make n 0 in
          Parkit.Pool.map pool (fun i -> dst.(i) <- (2 * i) + 1) src |> ignore;
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d all writes visible" jobs)
            (Array.init n (fun i -> (2 * i) + 1))
            dst);
      Parkit.Pool.with_pool ~jobs (fun pool ->
          let hit = ref false in
          Parkit.Pool.map pool (fun _ -> hit := true) [||] |> ignore;
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d empty array" jobs)
            false !hit))
    [ 1; 2; 4 ]

let test_sequential_pool () =
  Alcotest.(check (array int)) "plain loop" [| 0; 1; 4 |]
    (Parkit.Pool.init Parkit.Pool.sequential 3 (fun i -> i * i))

let test_nested_map_no_deadlock () =
  Parkit.Pool.with_pool ~jobs:2 (fun pool ->
      let result =
        Parkit.Pool.init pool 4 (fun i ->
            (* A task submitting to its own pool must degrade to a
               sequential loop, not deadlock. *)
            Array.fold_left ( + ) 0
              (Parkit.Pool.init pool 3 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int)) "nested results" [| 3; 33; 63; 93 |] result)

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Parkit.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "raises at jobs=%d" jobs)
            true
            (try
               ignore
                 (Parkit.Pool.init pool 16 (fun i ->
                      if i = 11 then raise (Boom i) else i));
               false
             with Boom 11 -> true);
          (* The pool survives a failed batch. *)
          Alcotest.(check (array int)) "pool still works" [| 0; 1; 2 |]
            (Parkit.Pool.init pool 3 (fun i -> i))))
    [ 1; 3 ]

let test_exception_propagates_chunked () =
  (* Exception handling must work whatever the chunk shape: the raising
     index may sit at a chunk boundary or deep inside one.  At 3 jobs, 16
     indices claim one at a time, 120 ten at a time (index 11 opens the
     second chunk's second slot) and 1200 a hundred at a time. *)
  Parkit.Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun total ->
          Alcotest.(check bool)
            (Printf.sprintf "raises at total=%d" total)
            true
            (try
               ignore
                 (Parkit.Pool.init pool total (fun i ->
                      if i = 11 then raise (Boom i) else i));
               false
             with Boom 11 -> true);
          Alcotest.(check (array int)) "pool still works" [| 0; 1; 2 |]
            (Parkit.Pool.init pool 3 (fun i -> i)))
        [ 16; 120; 1200 ])

(* The disjoint-slot pattern histolint's race pass sanctions
   ([out.(i) <- ...] with the index naming the task's own parameter) is
   actually race-free under the pool's happens-before join: for
   arbitrary sizes and job counts — so chunk shapes from one index up,
   with boundaries wherever the size puts them — every slot ends up
   written exactly once with the sequential value.  The read-
   modify-write against the -1 sentinel makes a lost write (slot never
   claimed) and a duplicated write (slot claimed by two tasks) produce
   distinct wrong values, so either failure falsifies the property. *)
let qcheck_disjoint_slot_writes =
  QCheck.Test.make ~name:"pool-indexed slot writes are race-free" ~count:60
    QCheck.(pair (int_range 0 500) (int_range 1 6))
    (fun (n, jobs) ->
      Parkit.Pool.with_pool ~jobs (fun pool ->
          let dst = Array.make (max n 1) (-1) in
          let src = Array.init n (fun i -> i) in
          Parkit.Pool.map pool (fun i -> dst.(i) <- dst.(i) + (7 * i) + 1) src
          |> ignore;
          let ok = ref true in
          for i = 0 to n - 1 do
            if dst.(i) <> 7 * i then ok := false
          done;
          !ok && (n > 0 || dst.(0) = -1)))

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Parkit.Pool.default_jobs () >= 1)

let () =
  Alcotest.run "parkit"
    [
      ( "pool",
        [
          Alcotest.test_case "create invalid" `Quick test_create_invalid;
          Alcotest.test_case "jobs above the domain limit" `Quick
            test_create_above_limit;
          Alcotest.test_case "no GC policy" `Quick test_no_gc_policy;
          Alcotest.test_case "default_grain" `Quick test_default_grain;
          Alcotest.test_case "map = Array.map" `Quick
            test_map_matches_array_map;
          Alcotest.test_case "grain invariance" `Quick
            test_grain_does_not_change_results;
          Alcotest.test_case "init ordered" `Quick test_init_ordered;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "map effects visible" `Quick
            test_map_effects_visible;
          Alcotest.test_case "sequential pool" `Quick test_sequential_pool;
          Alcotest.test_case "nested map" `Quick test_nested_map_no_deadlock;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "exception propagates (chunked)" `Quick
            test_exception_propagates_chunked;
          QCheck_alcotest.to_alcotest qcheck_disjoint_slot_writes;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive;
        ] );
    ]

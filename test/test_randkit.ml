let rng () = Randkit.Rng.create ~seed:12345

(* --- determinism and stream structure --- *)

let test_determinism () =
  let a = Randkit.Rng.create ~seed:9 and b = Randkit.Rng.create ~seed:9 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Randkit.Rng.bits64 a)
      (Randkit.Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Randkit.Rng.create ~seed:1 and b = Randkit.Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Randkit.Rng.bits64 a = Randkit.Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_copy_independent () =
  let a = rng () in
  let b = Randkit.Rng.copy a in
  Alcotest.(check int64) "copies aligned" (Randkit.Rng.bits64 a)
    (Randkit.Rng.bits64 b);
  ignore (Randkit.Rng.bits64 a);
  (* b is now one draw behind; they must not interfere. *)
  let a1 = Randkit.Rng.bits64 a and b1 = Randkit.Rng.bits64 b in
  Alcotest.(check bool) "desynced" true (a1 <> b1)

let test_split_diverges () =
  let a = rng () in
  let child = Randkit.Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Randkit.Rng.bits64 a = Randkit.Rng.bits64 child then incr matches
  done;
  Alcotest.(check int) "child is a different stream" 0 !matches

let test_splits_distinct () =
  let a = rng () in
  let c1 = Randkit.Rng.split a and c2 = Randkit.Rng.split a in
  Alcotest.(check bool) "two children differ" true
    (Randkit.Rng.bits64 c1 <> Randkit.Rng.bits64 c2)

(* --- basic draws --- *)

let test_int_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let x = Randkit.Rng.int r 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_int_bound_one () =
  Alcotest.(check int) "bound 1 is 0" 0 (Randkit.Rng.int (rng ()) 1)

let test_int_invalid () =
  Alcotest.check_raises "bound 0" (Invalid_argument
    "Rng.int: bound must be positive") (fun () ->
      ignore (Randkit.Rng.int (rng ()) 0))

let test_int_uniformish () =
  let r = rng () in
  let counts = Array.make 10 0 in
  let m = 100_000 in
  for _ = 1 to m do
    let x = Randkit.Rng.int r 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let f = float_of_int c /. float_of_int m in
      Alcotest.(check bool) "within 10% of uniform" true
        (Float.abs (f -. 0.1) < 0.01))
    counts

let test_float_range () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let x = Randkit.Rng.float r 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0. && x < 2.5)
  done

let test_unit_open_positive () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let u = Randkit.Rng.unit_open r in
    Alcotest.(check bool) "in (0, 1)" true (u > 0. && u < 1.)
  done

let test_bool_balanced () =
  let r = rng () in
  let heads = ref 0 in
  let m = 100_000 in
  for _ = 1 to m do
    if Randkit.Rng.bool r then incr heads
  done;
  let f = float_of_int !heads /. float_of_int m in
  Alcotest.(check bool) "balanced" true (Float.abs (f -. 0.5) < 0.01)

(* --- samplers --- *)

let mean_and_var draws =
  let s = Numkit.Summary.of_array draws in
  (Numkit.Summary.mean s, Numkit.Summary.variance s)

let test_poisson_small_moments () =
  let r = rng () in
  let draws =
    Array.init 50_000 (fun _ ->
        float_of_int (Randkit.Sampler.poisson r ~mean:5.))
  in
  let mean, var = mean_and_var draws in
  Alcotest.(check bool) "mean 5" true (Float.abs (mean -. 5.) < 0.1);
  Alcotest.(check bool) "var 5" true (Float.abs (var -. 5.) < 0.25)

let test_poisson_large_moments () =
  (* Exercises the PTRS branch (mean >= 30). *)
  let r = rng () in
  let draws =
    Array.init 50_000 (fun _ ->
        float_of_int (Randkit.Sampler.poisson r ~mean:200.))
  in
  let mean, var = mean_and_var draws in
  Alcotest.(check bool) "mean 200" true (Float.abs (mean -. 200.) < 1.);
  Alcotest.(check bool) "var 200" true (Float.abs (var -. 200.) < 10.)

let test_poisson_pmf_agreement () =
  (* Empirical frequencies of the PTRS sampler against the closed form. *)
  let r = rng () in
  let mean = 40. in
  let m = 100_000 in
  let counts = Hashtbl.create 64 in
  for _ = 1 to m do
    let k = Randkit.Sampler.poisson r ~mean in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  List.iter
    (fun k ->
      let f =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k))
        /. float_of_int m
      in
      let p = Numkit.Special.poisson_pmf ~mean k in
      Alcotest.(check bool)
        (Printf.sprintf "pmf at %d" k)
        true
        (Float.abs (f -. p) < 0.006))
    [ 30; 35; 40; 45; 50 ]

let test_poisson_zero () =
  Alcotest.(check int) "mean 0" 0 (Randkit.Sampler.poisson (rng ()) ~mean:0.)

let test_binomial_moments () =
  let r = rng () in
  let n = 100 and p = 0.3 in
  let draws =
    Array.init 20_000 (fun _ -> float_of_int (Randkit.Sampler.binomial r ~n ~p))
  in
  let mean, var = mean_and_var draws in
  Alcotest.(check bool) "mean np" true (Float.abs (mean -. 30.) < 0.3);
  Alcotest.(check bool) "var np(1-p)" true (Float.abs (var -. 21.) < 1.)

let test_binomial_edges () =
  let r = rng () in
  Alcotest.(check int) "p=0" 0 (Randkit.Sampler.binomial r ~n:10 ~p:0.);
  Alcotest.(check int) "p=1" 10 (Randkit.Sampler.binomial r ~n:10 ~p:1.);
  Alcotest.(check int) "n=0" 0 (Randkit.Sampler.binomial r ~n:0 ~p:0.5)

let binomial_samplers =
  [
    ("binomial", Randkit.Sampler.binomial);
    ("waiting_time", Randkit.Sampler.binomial_waiting_time);
    ("btrs", Randkit.Sampler.binomial_btrs);
  ]

let test_binomial_guards () =
  (* All three entry points share the argument contract, including NaN
     (which old-style [p < 0. || p > 1.] guards silently let through). *)
  List.iter
    (fun (name, f) ->
      List.iter
        (fun (case, n, p) ->
          let raised =
            match f (rng ()) ~n ~p with
            | exception Invalid_argument _ -> true
            | _ -> false
          in
          Alcotest.(check bool) (name ^ ": " ^ case) true raised)
        [
          ("n = -1", -1, 0.5);
          ("p < 0", 10, -0.1);
          ("p > 1", 10, 1.1);
          ("p nan", 10, Float.nan);
        ])
    binomial_samplers

let test_binomial_exact_extremes () =
  (* Every entry point at p in {0, 1} and n in {0, 1}: exact value, and —
     load-bearing for split-tree zero-mass pruning — no randomness
     consumed, checked by stream alignment against an untouched copy. *)
  List.iter
    (fun (name, f) ->
      List.iter
        (fun (n, p, expect) ->
          let r = rng () in
          let witness = Randkit.Rng.copy r in
          Alcotest.(check int)
            (Printf.sprintf "%s: n=%d p=%g" name n p)
            expect (f r ~n ~p);
          Alcotest.(check int64)
            (Printf.sprintf "%s: n=%d p=%g consumed no randomness" name n p)
            (Randkit.Rng.bits64 witness) (Randkit.Rng.bits64 r))
        [ (0, 0., 0); (0, 1., 0); (0, 0.5, 0); (1, 0., 0); (1, 1., 1);
          (42, 0., 0); (42, 1., 42) ])
    binomial_samplers

let test_binomial_cutoff_pinned () =
  (* The BTRS/waiting-time dispatch threshold is part of the determinism
     contract: moving it reshuffles every counts-path stream. *)
  Alcotest.(check (float 0.)) "np cutoff" 10. Randkit.Sampler.binomial_btrs_cutoff

let test_binomial_dispatch_streams () =
  (* [binomial] must be stream-identical to the branch the pinned cutoff
     selects, on both sides of it and under complement folding. *)
  let check name ~n ~p reference =
    let a = rng () and b = rng () in
    for _ = 1 to 500 do
      Alcotest.(check int) name
        (reference a ~n ~p)
        (Randkit.Sampler.binomial b ~n ~p)
    done
  in
  check "np < cutoff: waiting time" ~n:50 ~p:0.1
    Randkit.Sampler.binomial_waiting_time;
  check "np >= cutoff: btrs" ~n:200 ~p:0.3 Randkit.Sampler.binomial_btrs;
  check "p > 1/2, folded np < cutoff" ~n:50 ~p:0.9
    Randkit.Sampler.binomial_waiting_time;
  check "p > 1/2, folded np >= cutoff" ~n:200 ~p:0.7
    Randkit.Sampler.binomial_btrs

let test_binomial_waiting_moments () =
  (* The reference branch keeps its own moment check now that plain
     [binomial] at np = 30 routes to BTRS. *)
  let r = rng () in
  let n = 100 and p = 0.05 in
  let draws =
    Array.init 50_000 (fun _ ->
        float_of_int (Randkit.Sampler.binomial_waiting_time r ~n ~p))
  in
  let mean, var = mean_and_var draws in
  Alcotest.(check bool) "mean np" true (Float.abs (mean -. 5.) < 0.1);
  Alcotest.(check bool) "var np(1-p)" true (Float.abs (var -. 4.75) < 0.3)

let test_binomial_btrs_pmf_agreement () =
  (* Empirical BTRS frequencies against the closed-form pmf, across the
     mode and both shoulders. *)
  let r = rng () in
  let n = 100 and p = 0.3 in
  let m = 100_000 in
  let counts = Array.make (n + 1) 0 in
  for _ = 1 to m do
    let k = Randkit.Sampler.binomial_btrs r ~n ~p in
    counts.(k) <- counts.(k) + 1
  done;
  List.iter
    (fun k ->
      let f = float_of_int counts.(k) /. float_of_int m in
      let logp =
        Numkit.Special.log_factorial n
        -. Numkit.Special.log_factorial k
        -. Numkit.Special.log_factorial (n - k)
        +. (float_of_int k *. log p)
        +. (float_of_int (n - k) *. log (1. -. p))
      in
      Alcotest.(check bool)
        (Printf.sprintf "pmf at %d" k)
        true
        (Float.abs (f -. exp logp) < 0.006))
    [ 20; 25; 30; 35; 40 ]

let test_geometric_mean () =
  let r = rng () in
  let p = 0.25 in
  let draws =
    Array.init 50_000 (fun _ -> float_of_int (Randkit.Sampler.geometric r ~p))
  in
  let mean, _ = mean_and_var draws in
  (* E = (1-p)/p = 3. *)
  Alcotest.(check bool) "mean 3" true (Float.abs (mean -. 3.) < 0.1)

let test_gaussian_moments () =
  let r = rng () in
  let draws =
    Array.init 50_000 (fun _ -> Randkit.Sampler.gaussian r ~mu:2. ~sigma:3.)
  in
  let mean, var = mean_and_var draws in
  Alcotest.(check bool) "mean" true (Float.abs (mean -. 2.) < 0.05);
  Alcotest.(check bool) "var" true (Float.abs (var -. 9.) < 0.3)

let prop_permutation =
  QCheck.Test.make ~name:"permutation is a bijection" ~count:100
    QCheck.(int_range 1 200)
    (fun n ->
      let p = Randkit.Sampler.permutation (rng ()) n in
      let seen = Array.make n false in
      Array.iter (fun i -> seen.(i) <- true) p;
      Array.for_all (fun b -> b) seen)

let test_permutation_mixes () =
  (* Each position should receive each value roughly uniformly. *)
  let r = rng () in
  let n = 10 in
  let hits = Array.make_matrix n n 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let p = Randkit.Sampler.permutation r n in
    Array.iteri (fun pos v -> hits.(pos).(v) <- hits.(pos).(v) + 1) p
  done;
  let expect = float_of_int trials /. float_of_int n in
  Array.iter
    (Array.iter (fun c ->
         Alcotest.(check bool) "roughly uniform" true
           (Float.abs (float_of_int c -. expect) < 0.15 *. expect)))
    hits

let prop_sample_without_replacement =
  QCheck.Test.make ~name:"sampling without replacement: distinct, in-range"
    ~count:200
    QCheck.(pair (int_range 1 100) (int_range 0 100))
    (fun (n, k0) ->
      let k = min k0 n in
      let s = Randkit.Sampler.sample_without_replacement (rng ()) ~n ~k in
      List.length s = k
      && List.length (List.sort_uniq compare s) = k
      && List.for_all (fun x -> x >= 0 && x < n) s)

let test_zipf_weights () =
  let w = Randkit.Sampler.zipf_weights ~n:5 ~s:1. in
  Alcotest.(check (float 1e-12)) "first" 1. w.(0);
  Alcotest.(check (float 1e-12)) "third" (1. /. 3.) w.(2);
  for i = 1 to 4 do
    Alcotest.(check bool) "decreasing" true (w.(i) < w.(i - 1))
  done


let test_shuffle_in_place () =
  let r = rng () in
  let a = Array.init 50 (fun i -> i) in
  Randkit.Sampler.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved"
    (Array.init 50 (fun i -> i))
    sorted;
  Alcotest.(check bool) "actually shuffled" true
    (a <> Array.init 50 (fun i -> i))

let test_jump_streams_differ () =
  let a = Randkit.Xoshiro.of_seed 77L in
  let b = Randkit.Xoshiro.copy a in
  Randkit.Xoshiro.jump b;
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Randkit.Xoshiro.next a = Randkit.Xoshiro.next b then incr matches
  done;
  Alcotest.(check int) "jumped stream diverges" 0 !matches

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "randkit"
    [
      ( "streams",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "splits distinct" `Quick test_splits_distinct;
        ] );
      ( "draws",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bound one" `Quick test_int_bound_one;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int uniformish" `Quick test_int_uniformish;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "unit_open" `Quick test_unit_open_positive;
          Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
        ] );
      ( "samplers",
        [
          Alcotest.test_case "poisson small" `Quick test_poisson_small_moments;
          Alcotest.test_case "poisson large" `Quick test_poisson_large_moments;
          Alcotest.test_case "poisson pmf agreement" `Quick
            test_poisson_pmf_agreement;
          Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
          Alcotest.test_case "binomial moments" `Quick test_binomial_moments;
          Alcotest.test_case "binomial edges" `Quick test_binomial_edges;
          Alcotest.test_case "binomial guards" `Quick test_binomial_guards;
          Alcotest.test_case "binomial exact extremes" `Quick
            test_binomial_exact_extremes;
          Alcotest.test_case "binomial cutoff pinned" `Quick
            test_binomial_cutoff_pinned;
          Alcotest.test_case "binomial dispatch streams" `Quick
            test_binomial_dispatch_streams;
          Alcotest.test_case "binomial waiting moments" `Quick
            test_binomial_waiting_moments;
          Alcotest.test_case "binomial btrs pmf agreement" `Quick
            test_binomial_btrs_pmf_agreement;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "permutation mixes" `Quick test_permutation_mixes;
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
          Alcotest.test_case "shuffle in place" `Quick test_shuffle_in_place;
          Alcotest.test_case "jump streams differ" `Quick
            test_jump_streams_differ;
          qc prop_permutation;
          qc prop_sample_without_replacement;
        ] );
    ]

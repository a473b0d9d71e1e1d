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

(* Consecutive children are the trials of [Harness.run_trials]: none of
   child i+1's first 64 outputs may occur anywhere in child i's first
   4096 (a child that reads its elder sibling's stream a few draws later
   makes the trials of an error rate dependent). *)
let test_split_children_disjoint () =
  let parent = rng () in
  let draws child k = Array.init k (fun _ -> Randkit.Rng.bits64 child) in
  let children = Array.init 9 (fun _ -> Randkit.Rng.split parent) in
  for i = 0 to 7 do
    let elder = draws (Randkit.Rng.copy children.(i)) 4096 in
    let younger = draws (Randkit.Rng.copy children.(i + 1)) 64 in
    let shared =
      Array.fold_left
        (fun acc x -> if Array.mem x elder then acc + 1 else acc)
        0 younger
    in
    Alcotest.(check int)
      (Printf.sprintf "child %d's outputs in child %d's stream" (i + 1) i)
      0 shared
  done

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

let test_bits53_is_float_mantissa () =
  (* Two copies of one generator: the scaled mantissa is [float _ 1.] bit
     for bit, step for step. *)
  let a = rng () in
  let b = Randkit.Rng.copy a in
  for _ = 1 to 10_000 do
    let bits = Randkit.Rng.bits53 a in
    Alcotest.(check bool) "below 2^53" true (bits >= 0 && bits < 1 lsl 53);
    Alcotest.(check int64) "same float bits"
      (Int64.bits_of_float (Randkit.Rng.float b 1.))
      (Int64.bits_of_float (float_of_int bits *. 0x1p-53))
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

(* Sampler streams pinned bit for bit, recorded from the recursive-closure
   samplers that drew through [Rng.float]/[Rng.unit_open]: 10^4 draws per
   case from one seeded generator, plus the generator's next raw word, so
   a sampler that consumes one step more or less moves its digest too.
   Every counts-path trial is built from these draws. *)
let sampler_stream_pins =
  let module S = Randkit.Sampler in
  [
    ( "waiting n=50 p=0.1",
      "fa11e60be83f9365edc44da86c77ac8e",
      fun r _ -> S.binomial_waiting_time r ~n:50 ~p:0.1 );
    ( "waiting n=50 p=0.9",
      "25f4aae637029a381cf46300eef1da08",
      fun r _ -> S.binomial_waiting_time r ~n:50 ~p:0.9 );
    ( "waiting n=100000 p=0.00003",
      "16d1cd7f0e4f3211474fc12712c79854",
      fun r _ -> S.binomial_waiting_time r ~n:100_000 ~p:0.00003 );
    ( "btrs n=200 p=0.3",
      "8ddd93e5df6bad027b035298391d8f9e",
      fun r _ -> S.binomial_btrs r ~n:200 ~p:0.3 );
    ( "btrs n=200 p=0.7",
      "e7f9ea7125c72aada2f06476523a266c",
      fun r _ -> S.binomial_btrs r ~n:200 ~p:0.7 );
    ( "btrs n=10000000 p=0.37",
      "05f468bd8133ef160ea6259fb81d5bfb",
      fun r _ -> S.binomial_btrs r ~n:10_000_000 ~p:0.37 );
    (* n and p sweep both branches, both folds and the closed forms. *)
    ( "binomial mixed",
      "2fa46caccc5a051c45a39b9f1eb26a22",
      fun r i ->
        S.binomial r ~n:(i * 7919 mod 5000)
          ~p:(float_of_int (i mod 97) /. 96.) );
    ("poisson mean=0.3", "831d8072ec4090dc3c3491265c7bddf5",
     fun r _ -> S.poisson r ~mean:0.3);
    ("poisson mean=5", "d7089d7c8e07d96c8726e3f810e83044",
     fun r _ -> S.poisson r ~mean:5.);
    ("poisson mean=29.9", "e766660362d785a04c16d03a335d8f83",
     fun r _ -> S.poisson r ~mean:29.9);
    ("poisson mean=30", "ff19e60e8ffe4a277009396a4793e12e",
     fun r _ -> S.poisson r ~mean:30.);
    ("poisson mean=200", "ca8cf8ffc1f0b8b676172c6a270ed215",
     fun r _ -> S.poisson r ~mean:200.);
    ("poisson mean=1e6", "f0627069bf3aeb80c90305302c37a543",
     fun r _ -> S.poisson r ~mean:1e6);
    ("geometric p=0.25", "0b7cfddf5ba9192dae2856f937d445ac",
     fun r _ -> S.geometric r ~p:0.25);
    ("geometric p=0.001", "c14bb30057bce1138913f9df5caebb1c",
     fun r _ -> S.geometric r ~p:0.001);
    ("geometric p=1", "f5babf783ca8e0dca62fb65aea81d493",
     fun r _ -> S.geometric r ~p:1.);
  ]

let test_sampler_streams_pinned () =
  List.iter
    (fun (name, want, draw) ->
      let r = Randkit.Rng.create ~seed:2024 in
      let b = Buffer.create (8 * 10_001) in
      for i = 0 to 9_999 do
        Buffer.add_int64_le b (Int64.of_int (draw r i))
      done;
      Buffer.add_int64_le b (Randkit.Rng.bits64 r);
      Alcotest.(check string) name want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    sampler_stream_pins

(* The samplers are loops over local refs drawing int mantissas, the
   binomial cores fold p > 1/2 without boxing it, and a rejection path
   reads its log-factorials through a domain-owned slot: a draw allocates
   nothing.  Local [let rec loop ()] closures and boxed floats returned
   across the module boundary cost 6 to 90 words a draw, and boxed
   [Special.log_factorial] results about 3 words a BTRS draw. *)
let test_sampler_allocation () =
  let module S = Randkit.Sampler in
  let calls = 100_000 in
  List.iter
    (fun (name, draw) ->
      let r = rng () in
      let sink, { Refkit.Alloc.minor; _ } =
        Refkit.Alloc.measure (fun () ->
            let sink = ref 0 in
            for _ = 1 to calls do sink := !sink + draw r done;
            !sink)
      in
      ignore (Sys.opaque_identity sink);
      let per_call = minor /. float_of_int calls in
      if per_call > 0.01 then
        Alcotest.failf "%s: %.4f minor words per call (want <= 0.01)" name
          per_call)
    [
      ("geometric", fun r -> S.geometric r ~p:0.01);
      ("poisson small", fun r -> S.poisson r ~mean:20.);
      ("poisson ptrs", fun r -> S.poisson r ~mean:500.);
      ("waiting time", fun r -> S.binomial_waiting_time r ~n:100 ~p:0.05);
      ("waiting time, folded", fun r -> S.binomial_waiting_time r ~n:100 ~p:0.95);
      ("btrs", fun r -> S.binomial_btrs r ~n:1000 ~p:0.3);
      ("btrs, folded", fun r -> S.binomial_btrs r ~n:1000 ~p:0.7);
      ("binomial", fun r -> S.binomial r ~n:1000 ~p:0.2);
    ]

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
          Alcotest.test_case "split children disjoint" `Quick
            test_split_children_disjoint;
        ] );
      ( "draws",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int bound one" `Quick test_int_bound_one;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int uniformish" `Quick test_int_uniformish;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bits53 is the float mantissa" `Quick
            test_bits53_is_float_mantissa;
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
          Alcotest.test_case "streams pinned" `Quick
            test_sampler_streams_pinned;
          Alcotest.test_case "draws allocate almost nothing" `Quick
            test_sampler_allocation;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "permutation mixes" `Quick test_permutation_mixes;
          Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
          Alcotest.test_case "shuffle in place" `Quick test_shuffle_in_place;
          qc prop_permutation;
          qc prop_sample_without_replacement;
        ] );
    ]

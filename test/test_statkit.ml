let rng () = Randkit.Rng.create ~seed:31337

(* --- Poissonize --- *)

let test_exact_counts_sum () =
  let o = Poissonize.of_pmf (rng ()) (Families.zipf ~n:32 ~s:1.) in
  let counts = o.Poissonize.exact 5000 in
  Alcotest.(check int) "sum is m" 5000 (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "domain" 32 o.Poissonize.n

let test_poissonized_total_fluctuates () =
  let o = Poissonize.of_pmf (rng ()) (Pmf.uniform 16) in
  let totals =
    Array.init 200 (fun _ ->
        float_of_int (Array.fold_left ( + ) 0 (o.Poissonize.poissonized 1000.)))
  in
  let s = Numkit.Summary.of_array totals in
  Alcotest.(check bool) "mean near 1000" true
    (Float.abs (Numkit.Summary.mean s -. 1000.) < 15.);
  (* Poisson total: variance = mean (multinomial would have variance 0). *)
  Alcotest.(check bool) "variance near 1000" true
    (Numkit.Summary.variance s > 500. && Numkit.Summary.variance s < 2000.)

let test_poissonized_per_bin_moments () =
  let p = Pmf.create [| 0.75; 0.25 |] in
  let o = Poissonize.of_pmf (rng ()) p in
  let draws = Array.init 2000 (fun _ -> o.Poissonize.poissonized 100.) in
  let bin0 = Array.map (fun c -> float_of_int c.(0)) draws in
  let s = Numkit.Summary.of_array bin0 in
  Alcotest.(check bool) "mean m*p" true
    (Float.abs (Numkit.Summary.mean s -. 75.) < 1.5);
  Alcotest.(check bool) "poisson variance" true
    (Float.abs (Numkit.Summary.variance s -. 75.) < 12.)

let test_stream () =
  let o = Poissonize.of_pmf (rng ()) (Pmf.uniform 8) in
  let xs = o.Poissonize.stream 100 in
  Alcotest.(check int) "length" 100 (Array.length xs);
  Array.iter
    (fun x -> Alcotest.(check bool) "in domain" true (x >= 0 && x < 8))
    xs

(* --- counts-path oracles (split-tree binomial splitting) --- *)

let test_counts_oracle_exact_sum () =
  let p = Families.zipf ~n:48 ~s:1. in
  let o = Poissonize.counts_of_tree (rng ()) (Split_tree.of_pmf p) in
  Alcotest.(check int) "domain" 48 o.Poissonize.n;
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "exact %d sums to m" m)
        m
        (Array.fold_left ( + ) 0 (o.Poissonize.exact m)))
    [ 0; 1; 5000 ]

let test_counts_oracle_poissonized_moments () =
  (* Per-bin counts on the counts path are Poisson(mean * p_i), exactly as
     on the stream path. *)
  let p = Pmf.create [| 0.75; 0.25 |] in
  let o = Poissonize.counts_of_tree (rng ()) (Split_tree.of_pmf p) in
  let draws = Array.init 2000 (fun _ -> o.Poissonize.poissonized 100.) in
  let bin0 = Array.map (fun c -> float_of_int c.(0)) draws in
  let s = Numkit.Summary.of_array bin0 in
  Alcotest.(check bool) "mean m*p" true
    (Float.abs (Numkit.Summary.mean s -. 75.) < 1.5);
  Alcotest.(check bool) "poisson variance" true
    (Float.abs (Numkit.Summary.variance s -. 75.) < 12.)

let test_counts_oracle_stream_lawful () =
  (* [stream] on the counts path: right length, in-domain, and the sample
     multiset is exactly the counts multiset (expand + shuffle). *)
  let p = Families.zipf ~n:16 ~s:1. in
  let tree = Split_tree.of_pmf p in
  let o = Poissonize.counts_of_tree (rng ()) tree in
  let xs = o.Poissonize.stream 400 in
  Alcotest.(check int) "length" 400 (Array.length xs);
  Array.iter
    (fun x -> Alcotest.(check bool) "in domain" true (x >= 0 && x < 16))
    xs;
  (* Frequencies approach the pmf. *)
  let counts = Array.make 16 0 in
  Array.iter
    (fun x -> counts.(x) <- counts.(x) + 1)
    (o.Poissonize.stream 100_000);
  Alcotest.(check bool) "empirically close" true
    (Distance.tv (Empirical.of_counts counts) p < 0.02)

let test_counts_ws_matches_allocating () =
  (* [counts_of_tree_ws] must consume the generator exactly like
     [counts_of_tree]: same counts, same samples, same state after. *)
  let p = Families.zipf ~n:64 ~s:1.2 in
  let tree = Split_tree.of_pmf p in
  let a = Poissonize.counts_of_tree (rng ()) tree in
  let ws = Workspace.create () in
  let w = Poissonize.counts_of_tree_ws ws (rng ()) tree in
  Alcotest.(check bool) "exact identical" true
    (a.Poissonize.exact 300 = Array.copy (w.Poissonize.exact 300));
  Alcotest.(check bool) "poissonized identical" true
    (a.Poissonize.poissonized 250. = Array.copy (w.Poissonize.poissonized 250.));
  Alcotest.(check bool) "stream identical" true
    (a.Poissonize.stream 100 = Array.copy (w.Poissonize.stream 100));
  Alcotest.(check bool) "rng state identical after" true
    (a.Poissonize.exact 10 = Array.copy (w.Poissonize.exact 10))

let test_counts_ws_reuses_buffers () =
  let tree = Split_tree.of_pmf (Pmf.uniform 32) in
  let ws = Workspace.create () in
  let o = Poissonize.counts_of_tree_ws ws (rng ()) tree in
  let c1 = o.Poissonize.exact 100 in
  let c2 = o.Poissonize.exact 100 in
  Alcotest.(check bool) "same physical counts buffer" true (c1 == c2);
  let s1 = o.Poissonize.stream 50 in
  let s2 = o.Poissonize.stream 50 in
  Alcotest.(check bool) "same physical samples buffer" true (s1 == s2)

(* [draw_counts_into] streams pinned from the tree that stored subtree
   masses and divided at every visited node: storing the split
   probability instead is the same IEEE division done at build time, so
   no draw may move.  One generator per pmf, six draws in a row (m = 0
   consumes nothing); each digest covers a whole count vector. *)
let split_tree_pins =
  [
    ("staircase:4", [ "59071590099d21dd439896592338bf95"; "00ea42847d94d045a2ccb249c4428d39"; "930716f5e8135eb8ffaf20e56fe50693"; "d99fde103a05705b8e617a5a351a1165"; "23b102f56686c753ed7859a27058fd86"; "5a0bba109b656fb4153f03108e9652ca" ]);
    ("comb:8", [ "59071590099d21dd439896592338bf95"; "2a5563187cf670f575122cb01b216f82"; "7612edb5e15ee5ce9ff8129121cef7f5"; "d130fb8b509c134248e2e9b76a90a6b8"; "aa445ecd4da4f2672eec8dc68b74002f"; "58854d2d986f9e4dc77f488d8bff38a6" ]);
    ("sparse7", [ "e3c4dd21a9171fd39d208efa09bf7883"; "abd3c3fe224c0e2fa528824c201d9503"; "24f0e524d99d3e38b7dcae19acd643d3"; "d094fa30b4b1f3ef4adcb613ce186946"; "f668b74de6a7f2dad1ba8a50f4d006c8"; "2e522cc6bd771cd994bc7687ffc8dbd6" ]);
    ("point1", [ "7dea362b3fac8e00956a4952a3d4f474"; "33cdeccccebe80329f1fdbee7f5874cb"; "843fd2acf107350d495cae589a37913c"; "6a6874884400eacf8e6f8c87507971fd"; "cc1d9d477197918c6dd3bfd27b9e407c"; "1febdacb459c7441bf673fed25c19e5c" ]);
    ("zipf1000", [ "58101249c76b735bd74ce5302b009317"; "2790dfe78a10f1a6604fe31dc180aea3"; "9b226a579bad9555f4cfbf88076da6a7"; "148aaaa88816f2455b5b52b5de310338"; "045b6c37a762687a9ca0d255c57405ed"; "8dd72232f421373d40937e91c88c0b54" ]);
  ]

let test_split_tree_draws_pinned () =
  let pmfs =
    [
      ( "staircase:4",
        Result.get_ok
          (Families.of_spec ~n:(1 lsl 16) ~rng:(Randkit.Rng.create ~seed:7)
             "staircase:4") );
      ("comb:8", Families.comb ~n:(1 lsl 16) ~teeth:8);
      ("sparse7", Pmf.create [| 0.5; 0.; 0.25; 0.; 0.; 0.25; 0. |]);
      ("point1", Pmf.create [| 1. |]);
      ("zipf1000", Families.zipf ~n:1000 ~s:1.1);
    ]
  in
  let digest c =
    let b = Buffer.create (8 * Array.length c) in
    Array.iter (fun x -> Buffer.add_int64_le b (Int64.of_int x)) c;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter2
    (fun (name, pmf) (name', want) ->
      Alcotest.(check string) "pin order" name' name;
      let t = Split_tree.of_pmf pmf in
      let rng = Randkit.Rng.create ~seed:99 in
      let counts = Array.make (Pmf.size pmf) 0 in
      List.iter2
        (fun m want ->
          Split_tree.draw_counts_into t rng ~counts m;
          Alcotest.(check string) (Printf.sprintf "%s m=%d" name m) want
            (digest counts))
        [ 0; 1; 17; 1000; 100_000; 10_000_000 ]
        want)
    pmfs split_tree_pins

(* Constructor-invariant suite: every oracle constructor satisfies the
   same contract, checked uniformly.  The workspace-backed ones lend
   views; the others hand out fresh arrays — both are fine here because
   each draw is consumed before the next. *)

let oracle_constructors pmf =
  let alias = Alias.of_pmf pmf in
  let tree = Split_tree.of_pmf pmf in
  [
    ("of_pmf", fun () -> Poissonize.of_pmf (rng ()) pmf);
    ("of_alias", fun () -> Poissonize.of_alias (rng ()) alias);
    ( "of_alias_ws",
      fun () -> Poissonize.of_alias_ws (Workspace.create ()) (rng ()) alias );
    ("counts_of_tree", fun () -> Poissonize.counts_of_tree (rng ()) tree);
    ( "counts_of_tree_ws",
      fun () -> Poissonize.counts_of_tree_ws (Workspace.create ()) (rng ()) tree
    );
  ]

let test_all_oracles_exact_sum () =
  let pmf = Families.zipf ~n:40 ~s:1. in
  List.iter
    (fun (name, make) ->
      let o = make () in
      List.iter
        (fun m ->
          let counts = o.Poissonize.exact m in
          Alcotest.(check int) (name ^ ": length") 40 (Array.length counts);
          Alcotest.(check bool)
            (name ^ ": nonnegative")
            true
            (Array.for_all (fun c -> c >= 0) counts);
          Alcotest.(check int)
            (Printf.sprintf "%s: exact %d sums to m" name m)
            m
            (Array.fold_left ( + ) 0 counts))
        [ 0; 1; 777 ])
    (oracle_constructors pmf)

let test_all_oracles_stream_in_domain () =
  let pmf = Families.zipf ~n:40 ~s:1. in
  List.iter
    (fun (name, make) ->
      let o = make () in
      let xs = o.Poissonize.stream 123 in
      Alcotest.(check int) (name ^ ": stream length") 123 (Array.length xs);
      Alcotest.(check bool)
        (name ^ ": stream in domain")
        true
        (Array.for_all (fun x -> x >= 0 && x < 40) xs))
    (oracle_constructors pmf)

let test_all_oracles_poissonized_metering () =
  (* Through a Budget_oracle, a poissonized draw is charged at its
     realized total on every path — on the counts path that total is the
     Poisson variable drawn at the tree root. *)
  let pmf = Families.zipf ~n:40 ~s:1. in
  List.iter
    (fun (name, make) ->
      let meter = Refkit.Budget_oracle.wrap (make ()) in
      let o = Refkit.Budget_oracle.oracle meter in
      let counts = o.Poissonize.poissonized 500. in
      let realized = Array.fold_left ( + ) 0 counts in
      Alcotest.(check int)
        (name ^ ": poissonized charge = realized count")
        realized (Refkit.Budget_oracle.drawn meter))
    (oracle_constructors pmf)

(* --- chi^2 equivalence of the stream and counts paths --- *)

let test_counts_vs_stream_chi2_marginals () =
  (* Per-cell totals over independent Poissonized ensembles from each
     path; under the null (same law) each cell of the two-sample
     statistic is Binomial(a+b, 1/2), and the summed (a-b)^2/(a+b) is
     chi^2(df).  Generous threshold: this guards against gross law
     violations (a wrong split probability, a lost subtree), not 3-sigma
     noise. *)
  let n = 128 in
  let pmf = Families.zipf ~n ~s:1.0 in
  let trials = 400 and mean = 800. in
  let totals o =
    let acc = Array.make n 0 in
    for _ = 1 to trials do
      let counts = o.Poissonize.poissonized mean in
      for i = 0 to n - 1 do
        acc.(i) <- acc.(i) + counts.(i)
      done
    done;
    acc
  in
  let a = totals (Poissonize.of_alias (rng ()) (Alias.of_pmf pmf)) in
  let b =
    totals
      (Poissonize.counts_of_tree
         (Randkit.Rng.create ~seed:271828)
         (Split_tree.of_pmf pmf))
  in
  let stat = ref 0. and df = ref 0 in
  for i = 0 to n - 1 do
    let s = a.(i) + b.(i) in
    if s > 0 then begin
      let d = float_of_int (a.(i) - b.(i)) in
      stat := !stat +. (d *. d /. float_of_int s);
      incr df
    end
  done;
  let p_value =
    1. -. Numkit.Special.gamma_p (float_of_int !df /. 2.) (!stat /. 2.)
  in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.1f on %d df (p = %.2g)" !stat !df p_value)
    true (p_value > 1e-9)

let test_counts_vs_stream_verdicts () =
  (* Verdict distributions of Algorithm 1 must agree across paths: accept
     rates over independent trial ensembles within two-proportion noise.
     Small grid so the whole check stays test-suite-sized. *)
  let trials = 200 in
  Parkit.Pool.with_pool ~jobs:2 @@ fun pool ->
  List.iter
    (fun (n, k, eps, pmf) ->
      let rate kind =
        Harness.accept_rate ~pool ~oracle:kind
          ~rng:(Randkit.Rng.create ~seed:31337)
          ~trials ~pmf
          (fun trial ->
            Histotest.Hist_tester.test ~ws:trial.Harness.ws
              trial.Harness.oracle ~k ~eps)
      in
      let rs = rate Harness.Stream and rc = rate Harness.Counts in
      let pooled = (rs +. rc) /. 2. in
      let se = sqrt (pooled *. (1. -. pooled) *. 2. /. float_of_int trials) in
      let z = if se > 0. then Float.abs (rs -. rc) /. se else 0. in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d k=%d eps=%g: stream %.3f vs counts %.3f (z=%.2f)"
           n k eps rs rc z)
        true (z <= 5.))
    [
      (512, 4, 0.25, Families.staircase ~n:512 ~k:4 ~rng:(rng ()));
      (512, 4, 0.25, Families.comb ~n:512 ~teeth:8);
    ]

(* --- Chi2stat --- *)

let test_chi2_zero_counts_match () =
  (* The expectation formula must agree with the direct truncated
     chi-square computation for a known D. *)
  let n = 64 in
  let d = Families.zipf ~n ~s:1. in
  let dstar = Pmf.uniform n in
  let part = Partition.trivial ~n in
  let m = 1000. in
  let expected = Chi2stat.expectation ~d ~dstar ~part ~eps:0.5 ~m () in
  (* Direct truncated chi-square computation. *)
  let cutoff = Chi2stat.heavy_cutoff ~eps:0.5 ~n in
  let direct =
    m
    *. Numkit.Kahan.sum_f n (fun i ->
           if Pmf.get dstar i >= cutoff then
             let diff = Pmf.get d i -. Pmf.get dstar i in
             diff *. diff /. Pmf.get dstar i
           else 0.)
  in
  Alcotest.(check (float 1e-9)) "closed form" direct expected

let test_chi2_statistic_unbiased () =
  let n = 32 in
  let d = Families.zipf ~n ~s:0.8 in
  let dstar = Pmf.uniform n in
  let part = Partition.equal_width ~n ~cells:4 in
  let o = Poissonize.of_pmf (rng ()) d in
  let m = 20000. in
  let trials = 300 in
  let zs =
    Array.init trials (fun _ ->
        let counts = o.Poissonize.poissonized m in
        (Chi2stat.compute ~counts ~m ~dstar ~part ~eps:0.25 ()).Chi2stat.z)
  in
  let mean = Numkit.Summary.mean_of zs in
  let expected = Chi2stat.expectation ~d ~dstar ~part ~eps:0.25 ~m () in
  Alcotest.(check bool)
    (Printf.sprintf "empirical mean %.1f vs expectation %.1f" mean expected)
    true
    (Float.abs (mean -. expected) < 0.15 *. expected)

let test_chi2_per_cell_sums () =
  let n = 32 in
  let o = Poissonize.of_pmf (rng ()) (Families.zipf ~n ~s:1.) in
  let part = Partition.equal_width ~n ~cells:5 in
  let counts = o.Poissonize.poissonized 5000. in
  let stat =
    Chi2stat.compute ~counts ~m:5000. ~dstar:(Pmf.uniform n) ~part ~eps:0.3 ()
  in
  Alcotest.(check (float 1e-9)) "per-cell sums to z" stat.Chi2stat.z
    (Numkit.Kahan.sum_array stat.Chi2stat.per_cell)

let test_chi2_cell_mask () =
  let n = 16 in
  let o = Poissonize.of_pmf (rng ()) (Pmf.uniform n) in
  let part = Partition.equal_width ~n ~cells:4 in
  let counts = o.Poissonize.poissonized 2000. in
  let mask = [| true; false; true; false |] in
  let stat =
    Chi2stat.compute ~cell_mask:mask ~counts ~m:2000. ~dstar:(Pmf.uniform n)
      ~part ~eps:0.3 ()
  in
  Alcotest.(check (float 0.)) "masked cell is zero" 0. stat.Chi2stat.per_cell.(1);
  Alcotest.(check (float 0.)) "masked cell is zero (3)" 0.
    stat.Chi2stat.per_cell.(3)

let test_chi2_truncation_excludes_tiny () =
  (* D* puts negligible mass on element 0: it must be excluded from A_eps,
     so even a huge observed count there contributes nothing. *)
  let n = 4 in
  let dstar = Pmf.create [| 1e-9; 0.4; 0.3; 0.3 -. 1e-9 |] in
  let part = Partition.trivial ~n in
  let counts = [| 1000; 0; 0; 0 |] in
  let stat = Chi2stat.compute ~counts ~m:1000. ~dstar ~part ~eps:0.3 () in
  (* Element 0 excluded; elements 1-3 contribute (0 - m d)^2 - 0 / (m d). *)
  let manual =
    Numkit.Kahan.sum_f 3 (fun j ->
        let d = Pmf.get dstar (j + 1) in
        1000. *. d)
  in
  Alcotest.(check (float 1e-6)) "only heavy elements counted" manual
    stat.Chi2stat.z

let test_accept_threshold () =
  Alcotest.(check (float 1e-12)) "m eps^2 / 10" 10.
    (Chi2stat.accept_threshold ~m:1000. ~eps:0.31622776601683794)

let test_chi2_supplied_per_cell () =
  (* Passing [~per_cell] must change nothing about the numbers — same z,
     same per-cell values — while the returned statistic physically reuses
     the supplied buffer. *)
  let n = 48 in
  let o = Poissonize.of_pmf (rng ()) (Families.zipf ~n ~s:1.) in
  let part = Partition.equal_width ~n ~cells:6 in
  let counts = o.Poissonize.poissonized 4000. in
  let dstar = Pmf.uniform n in
  let fresh = Chi2stat.compute ~counts ~m:4000. ~dstar ~part ~eps:0.3 () in
  let buf = Array.make 6 nan in
  let reused =
    Chi2stat.compute ~per_cell:buf ~counts ~m:4000. ~dstar ~part ~eps:0.3 ()
  in
  Alcotest.(check (float 0.)) "same z" fresh.Chi2stat.z reused.Chi2stat.z;
  Alcotest.(check bool) "same per-cell values" true
    (fresh.Chi2stat.per_cell = reused.Chi2stat.per_cell);
  Alcotest.(check bool) "buffer physically reused" true
    (reused.Chi2stat.per_cell == buf);
  Alcotest.(check bool) "wrong length rejected" true
    (try
       ignore
         (Chi2stat.compute ~per_cell:(Array.make 5 0.) ~counts ~m:4000. ~dstar
            ~part ~eps:0.3 ());
       false
     with Invalid_argument _ -> true)

(* [compute_khist] reads one level per run where [compute] reads the
   expansion element by element; both must produce the same bits.  The
   histograms repeat levels across adjacent cells, and one weight in four
   is 1e-3, whose level falls below the A_eps cutoff at eps = 1.  The
   statistic is grouped by the pieces' own partition (Algorithm 1's use)
   or by an independent one (the service's): finer, coarser or neither. *)
let prop_chi2_khist_equals_dense =
  QCheck.Test.make ~name:"compute_khist = compute on the expansion (bits)"
    ~count:300 (QCheck.int_range 0 1_000_000) (fun seed ->
      let r = Randkit.Rng.create ~seed in
      let n = 1 + Randkit.Rng.int r 64 in
      let random_partition () =
        let keep = Randkit.Rng.int r 4 in
        Partition.of_breakpoints ~n
          (List.filter (fun _ -> Randkit.Rng.int r 4 < keep) (List.init (n - 1) succ))
      in
      let pieces = random_partition () in
      let kk = Partition.cell_count pieces in
      let w =
        Array.init kk (fun _ -> [| 1e-3; 1.; 2.; 3. |].(Randkit.Rng.int r 4))
      in
      let len j = float_of_int (Interval.length (Partition.cell pieces j)) in
      let mass = Numkit.Kahan.sum_f kk (fun j -> w.(j) *. len j) in
      let h = Khist.make pieces (Array.map (fun x -> x /. mass) w) in
      let part = if Randkit.Rng.bool r then pieces else random_partition () in
      let cells = Partition.cell_count part in
      let counts = Array.init n (fun _ -> Randkit.Rng.int r 30) in
      let m = 10. +. Randkit.Rng.float r 2000. in
      let eps = [| 0.1; 0.5; 1. |].(Randkit.Rng.int r 3) in
      let cell_mask =
        if Randkit.Rng.bool r then None
        else Some (Array.init cells (fun _ -> Randkit.Rng.int r 3 > 0))
      in
      let dense =
        Chi2stat.compute ?cell_mask ~counts ~m ~dstar:(Khist.to_pmf h) ~part
          ~eps ()
      in
      let per_cell = Array.make cells nan in
      let runs =
        Chi2stat.compute_khist ?cell_mask ~per_cell ~counts ~m ~dstar:h ~part
          ~eps ()
      in
      let bits = Int64.bits_of_float in
      Int64.equal (bits dense.Chi2stat.z) (bits runs.Chi2stat.z)
      && Array.for_all2
           (fun a b -> Int64.equal (bits a) (bits b))
           dense.Chi2stat.per_cell runs.Chi2stat.per_cell)

(* --- Workspace-backed oracles --- *)

let test_ws_oracle_matches_allocating () =
  (* [of_alias_ws] must consume the RNG stream exactly like [of_alias]:
     same counts, same samples, same generator state afterwards. *)
  let pmf = Families.zipf ~n:64 ~s:1.2 in
  let alias = Alias.of_pmf pmf in
  let r1 = rng () in
  let r2 = rng () in
  let a = Poissonize.of_alias r1 alias in
  let ws = Workspace.create () in
  let w = Poissonize.of_alias_ws ws r2 alias in
  Alcotest.(check bool) "exact identical" true
    (a.Poissonize.exact 300 = Array.copy (w.Poissonize.exact 300));
  Alcotest.(check bool) "poissonized identical" true
    (a.Poissonize.poissonized 250. = Array.copy (w.Poissonize.poissonized 250.));
  Alcotest.(check bool) "stream identical" true
    (a.Poissonize.stream 100 = Array.copy (w.Poissonize.stream 100));
  Alcotest.(check bool) "rng state identical after" true
    (a.Poissonize.exact 10 = Array.copy (w.Poissonize.exact 10))

let test_ws_oracle_reuses_buffers () =
  let pmf = Pmf.uniform 32 in
  let ws = Workspace.create () in
  let o = Poissonize.of_alias_ws ws (rng ()) (Alias.of_pmf pmf) in
  let c1 = o.Poissonize.exact 100 in
  let c2 = o.Poissonize.exact 100 in
  Alcotest.(check bool) "same physical counts buffer" true (c1 == c2);
  let s1 = o.Poissonize.stream 50 in
  let s2 = o.Poissonize.stream 50 in
  Alcotest.(check bool) "same physical samples buffer" true (s1 == s2)

(* --- Verdict / Amplify --- *)

let test_verdict_majority () =
  let vote verdicts =
    Amplify.majority_vote ~trials:(Array.length verdicts) (fun i ->
        verdicts.(i))
  in
  Alcotest.(check bool) "accepts" true
    (vote [| Verdict.Accept; Verdict.Accept; Verdict.Reject |]
    = Verdict.Accept);
  Alcotest.(check bool) "tie rejects" true
    (vote [| Verdict.Accept; Verdict.Reject |] = Verdict.Reject);
  Alcotest.(check string) "to_string" "accept" (Verdict.to_string Verdict.Accept)

let test_repetitions_for () =
  let r = Amplify.repetitions_for ~delta:0.01 in
  Alcotest.(check bool) "odd" true (r mod 2 = 1);
  Alcotest.(check bool) "grows with confidence" true
    (Amplify.repetitions_for ~delta:0.001 > r);
  Alcotest.(check bool) "invalid delta" true
    (try
       ignore (Amplify.repetitions_for ~delta:1.5);
       false
     with Invalid_argument _ -> true)

let test_majority_vote () =
  let verdicts = [| Verdict.Accept; Verdict.Reject; Verdict.Accept |] in
  Alcotest.(check bool) "majority accept" true
    (Amplify.majority_vote ~trials:3 (fun i -> verdicts.(i)) = Verdict.Accept)

let test_boosted_amplifies () =
  (* A 70%-correct coin should be nearly always correct after a majority
     vote over [repetitions_for ~delta] runs. *)
  let r = rng () in
  let wrong = ref 0 in
  let runs = 200 in
  for _ = 1 to runs do
    let v =
      Amplify.majority_vote ~trials:(Amplify.repetitions_for ~delta:0.01)
        (fun _ ->
          if Randkit.Rng.float r 1. < 0.7 then Verdict.Accept else Verdict.Reject)
    in
    if v <> Verdict.Accept then incr wrong
  done;
  Alcotest.(check bool)
    (Printf.sprintf "wrong %d/%d" !wrong runs)
    true
    (float_of_int !wrong /. float_of_int runs < 0.05)

(* --- Harness --- *)

let test_accept_rate_deterministic () =
  let r = rng () in
  let rate =
    Harness.accept_rate ~pool:Parkit.Pool.sequential ~rng:r ~trials:50
      ~pmf:(Pmf.uniform 8) (fun _ -> Verdict.Accept)
  in
  Alcotest.(check (float 0.)) "always accepts" 1. rate

let test_harness_trials_draw_samples () =
  (* Trials may run on several domains of the pool: each returns its own
     size rather than pushing onto a shared list. *)
  let r = rng () in
  let sizes =
    Parkit.Pool.with_pool ~jobs:2 @@ fun pool ->
    Harness.run_trials ~pool ~rng:r ~trials:5 ~pmf:(Pmf.uniform 8) (fun trial ->
        let counts = trial.Harness.oracle.Poissonize.exact 100 in
        Array.fold_left ( + ) 0 counts)
  in
  Alcotest.(check (array int)) "each trial sampled" [| 100; 100; 100; 100; 100 |]
    sizes

(* --- parallel determinism ---

   The harness contract: for a fixed seed the results are bit-identical
   at any job count, and identical to the original (pre-parkit)
   sequential loop, which split the generator and rebuilt the alias
   table inside the per-trial loop.  [reference_trials] reproduces that
   original loop verbatim. *)

let reference_trials ~seed ~trials ~pmf f =
  let rng = Randkit.Rng.create ~seed in
  Array.init trials (fun _ ->
      let child = Randkit.Rng.split rng in
      let oracle = Poissonize.of_pmf child pmf in
      f { Harness.rng = child; oracle; ws = Workspace.create () })

let parity_decide (trial : Harness.trial) =
  let counts = trial.Harness.oracle.Poissonize.exact 200 in
  if counts.(0) mod 2 = 0 then Verdict.Accept else Verdict.Reject

let pooled_accept_rate ~pool ~seed ~trials ~pmf =
  Harness.accept_rate ~pool ~rng:(Randkit.Rng.create ~seed) ~trials ~pmf
    parity_decide

let test_accept_rate_jobs_invariant () =
  let pmf = Families.zipf ~n:64 ~s:1.0 in
  let trials = 40 in
  let reference =
    let verdicts = reference_trials ~seed:31337 ~trials ~pmf parity_decide in
    let accepts =
      Array.fold_left
        (fun acc v -> if v = Verdict.Accept then acc + 1 else acc)
        0 verdicts
    in
    float_of_int accepts /. float_of_int trials
  in
  (* Value observed on the pre-parkit sequential harness: frozen so a
     stream or split change cannot slip through unnoticed. *)
  Alcotest.(check (float 0.)) "pre-change value" 0.4 reference;
  List.iter
    (fun jobs ->
      Parkit.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "jobs=%d bit-identical" jobs)
            reference
            (pooled_accept_rate ~pool ~seed:31337 ~trials ~pmf)))
    [ 1; 4 ]

let test_run_trials_jobs_invariant () =
  (* Element-wise equality of the full per-trial output, not just an
     aggregate: each trial's counts vector must match the reference.  The
     copy is required: the harness oracle is workspace-backed, so the
     array it returns is overwritten by the next trial on the domain. *)
  let pmf = Families.staircase ~n:256 ~k:4 ~rng:(rng ()) in
  let collect (trial : Harness.trial) =
    Array.copy (trial.Harness.oracle.Poissonize.exact 500)
  in
  let reference = reference_trials ~seed:7 ~trials:12 ~pmf collect in
  List.iter
    (fun jobs ->
      Parkit.Pool.with_pool ~jobs (fun pool ->
          let got =
            Harness.run_trials ~pool
              ~rng:(Randkit.Rng.create ~seed:7)
              ~trials:12 ~pmf collect
          in
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d trial streams identical" jobs)
            true (got = reference)))
    [ 1; 4 ]

let test_median_majority_jobs_invariant () =
  (* A pure per-index estimator may use a pool; neither the median of its
     values nor the vote over its verdicts may depend on the job count. *)
  let f i = sin (float_of_int (7 * i) +. 0.5) in
  let reference = Numkit.Summary.quantile (Array.init 31 f) 0.5 in
  Parkit.Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (float 0.)) "jobs=4 median identical" reference
        (Numkit.Summary.quantile (Parkit.Pool.init pool 31 f) 0.5));
  let g i = if i mod 3 = 0 then Verdict.Reject else Verdict.Accept in
  Parkit.Pool.with_pool ~jobs:4 (fun pool ->
      let pooled = Parkit.Pool.init pool 9 g in
      Alcotest.(check bool) "majority over jobs=4 verdicts identical" true
        (Amplify.majority_vote ~trials:9 g
        = Amplify.majority_vote ~trials:9 (fun i -> pooled.(i))))

let test_chunked_scheduling_jobs_invariant () =
  (* The chunk size decides only which domain runs which indices; the
     frozen accept-rate pin must hold for every chunk shape.  Over 40
     trials, 2, 3 and 8 jobs claim 5, 3 and 1 trials per round-trip. *)
  let pmf = Families.zipf ~n:64 ~s:1.0 in
  List.iter
    (fun jobs ->
      Parkit.Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "jobs=%d reproduces pin" jobs)
            0.4
            (pooled_accept_rate ~pool ~seed:31337 ~trials:40 ~pmf)))
    [ 2; 3; 8 ]

(* --- Budget_oracle --- *)

let test_budget_metering () =
  let inner = Poissonize.of_pmf (rng ()) (Pmf.uniform 8) in
  let meter = Refkit.Budget_oracle.wrap inner in
  let o = Refkit.Budget_oracle.oracle meter in
  ignore (o.Poissonize.exact 100);
  ignore (o.Poissonize.stream 50);
  Alcotest.(check int) "exact+stream metered" 150 (Refkit.Budget_oracle.drawn meter);
  let counts = o.Poissonize.poissonized 200. in
  let realized = Array.fold_left ( + ) 0 counts in
  Alcotest.(check int) "poissonized charged at realized count"
    (150 + realized) (Refkit.Budget_oracle.drawn meter)

let test_budget_cap () =
  let inner = Poissonize.of_pmf (rng ()) (Pmf.uniform 8) in
  let meter = Refkit.Budget_oracle.wrap ~cap:100 inner in
  let o = Refkit.Budget_oracle.oracle meter in
  ignore (o.Poissonize.exact 100);
  Alcotest.(check bool) "cap enforced" true
    (try
       ignore (o.Poissonize.exact 1);
       false
     with Refkit.Budget_oracle.Budget_exceeded _ -> true)

let test_tester_respects_plan () =
  (* Algorithm 1's realized consumption must stay within its planned
     worst-case budget (with slack for Poisson fluctuation). *)
  let n = 512 and k = 2 and eps = 0.3 in
  let plan = Histotest.Hist_tester.plan ~n ~k ~eps () in
  let inner = Poissonize.of_pmf (rng ()) (Families.staircase ~n ~k ~rng:(rng ())) in
  let meter = Refkit.Budget_oracle.wrap inner in
  let report = Histotest.Hist_tester.run (Refkit.Budget_oracle.oracle meter) ~k ~eps in
  Alcotest.(check bool) "reported samples match meter" true
    (abs (report.Histotest.Hist_tester.samples_used - Refkit.Budget_oracle.drawn meter)
     < plan / 10);
  Alcotest.(check bool)
    (Printf.sprintf "drawn %d <= plan %d (+10%%)" (Refkit.Budget_oracle.drawn meter) plan)
    true
    (Refkit.Budget_oracle.drawn meter <= plan + (plan / 10))

(* --- Fingerprint --- *)

let test_fingerprint_basic () =
  let f = Fingerprint.of_counts [| 3; 1; 0; 1; 2 |] in
  Alcotest.(check int) "samples" 7 (Fingerprint.samples f);
  Alcotest.(check int) "distinct" 4 (Fingerprint.distinct f);
  Alcotest.(check int) "singletons" 2 (Fingerprint.singletons f);
  Alcotest.(check int) "prevalence 2" 1 (Fingerprint.prevalence f 2);
  Alcotest.(check int) "collisions" (3 + 1) (Fingerprint.collisions f)

let test_fingerprint_l2 () =
  (* Empirical ||D||_2^2 estimate on a known distribution. *)
  let p = Pmf.create [| 0.5; 0.25; 0.25 |] in
  let truth = 0.25 +. 0.0625 +. 0.0625 in
  let o = Poissonize.of_pmf (rng ()) p in
  let est =
    Numkit.Summary.mean_of
      (Array.init 50 (fun _ ->
           Fingerprint.l2_norm_sq_estimate
             (Fingerprint.of_counts (o.Poissonize.exact 2000))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.4f vs %.4f" est truth)
    true
    (Float.abs (est -. truth) < 0.01)

let test_good_turing () =
  (* All-singleton sample: everything unseen is plausible. *)
  let f = Fingerprint.of_counts [| 1; 1; 1; 0 |] in
  Alcotest.(check (float 1e-12)) "missing mass" 1.
    (Fingerprint.good_turing_missing_mass f);
  (* Heavily repeated sample: little unseen. *)
  let f2 = Fingerprint.of_counts [| 100; 100 |] in
  Alcotest.(check (float 1e-12)) "no singletons" 0.
    (Fingerprint.good_turing_missing_mass f2)

let test_chao1 () =
  let f = Fingerprint.of_counts [| 5; 4; 3; 1; 1; 2 |] in
  (* distinct 6, F1 = 2, F2 = 1 -> 6 + 4/2 = 8. *)
  Alcotest.(check (float 1e-9)) "chao1" 8. (Fingerprint.chao1_support_estimate f)

let test_entropy () =
  Alcotest.(check (float 1e-9)) "uniform over 4" (log 4.)
    (Fingerprint.entropy_plugin [| 10; 10; 10; 10 |]);
  Alcotest.(check (float 1e-9)) "point mass" 0.
    (Fingerprint.entropy_plugin [| 42 |]);
  Alcotest.(check bool) "miller-madow adds bias term" true
    (Fingerprint.entropy_miller_madow [| 3; 2; 1 |]
     > Fingerprint.entropy_plugin [| 3; 2; 1 |])


(* --- Gridding (Section 2 remark) --- *)

let test_gridding_cells () =
  let g = Gridding.make ~lo:0. ~hi:10. ~cells:5 in
  Alcotest.(check int) "cells" 5 (Gridding.cells g);
  Alcotest.(check int) "interior" 2 (Gridding.cell_of g 4.2);
  Alcotest.(check int) "clamp low" 0 (Gridding.cell_of g (-3.));
  Alcotest.(check int) "clamp high" 4 (Gridding.cell_of g 11.);
  Alcotest.(check int) "left edge" 0 (Gridding.cell_of g 0.);
  let a, b = Gridding.cell_bounds g 1 in
  Alcotest.(check (float 1e-12)) "bound lo" 2. a;
  Alcotest.(check (float 1e-12)) "bound hi" 4. b

let test_gridding_invalid () =
  Alcotest.(check bool) "lo >= hi" true
    (try
       ignore (Gridding.make ~lo:1. ~hi:1. ~cells:4);
       false
     with Invalid_argument _ -> true);
  let g = Gridding.make ~lo:0. ~hi:1. ~cells:4 in
  Alcotest.(check bool) "nan" true
    (try
       ignore (Gridding.cell_of g nan);
       false
     with Invalid_argument _ -> true)

let test_gridding_density () =
  (* A flat density grids to the uniform pmf. *)
  let g = Gridding.make ~lo:0. ~hi:1. ~cells:16 in
  let p = Gridding.pmf_of_density g (fun _ -> 1.) in
  Alcotest.(check (array (float 1e-9))) "uniform" (Array.make 16 (1. /. 16.))
    (Pmf.to_array p);
  (* A density supported on the left half puts no mass on the right. *)
  let q = Gridding.pmf_of_density g (fun x -> if x < 0.5 then 2. else 0.) in
  Alcotest.(check (float 1e-9)) "right half empty" 0.
    (Pmf.mass_on q (Interval.make ~lo:8 ~hi:16))

let test_gridding_oracle_matches_density () =
  (* Sampling a continuous uniform through the grid produces counts whose
     empirical distribution approaches the gridded density. *)
  let g = Gridding.make ~lo:0. ~hi:2. ~cells:32 in
  let o =
    Gridding.oracle_of_sampler g (rng ()) (fun r -> Randkit.Rng.float r 2.)
  in
  let counts = o.Poissonize.exact 100_000 in
  let emp = Empirical.of_counts counts in
  Alcotest.(check bool) "close to uniform" true
    (Distance.tv emp (Pmf.uniform 32) < 0.02);
  Alcotest.(check int) "stream length" 50 (Array.length (o.Poissonize.stream 50))

let () =
  Alcotest.run "statkit"
    [
      ( "poissonize",
        [
          Alcotest.test_case "exact counts" `Quick test_exact_counts_sum;
          Alcotest.test_case "poissonized totals" `Quick
            test_poissonized_total_fluctuates;
          Alcotest.test_case "per-bin moments" `Quick
            test_poissonized_per_bin_moments;
          Alcotest.test_case "stream" `Quick test_stream;
        ] );
      ( "chi2stat",
        [
          Alcotest.test_case "expectation closed form" `Quick
            test_chi2_zero_counts_match;
          Alcotest.test_case "unbiased" `Quick test_chi2_statistic_unbiased;
          Alcotest.test_case "per-cell sums" `Quick test_chi2_per_cell_sums;
          Alcotest.test_case "cell mask" `Quick test_chi2_cell_mask;
          Alcotest.test_case "A_eps truncation" `Quick
            test_chi2_truncation_excludes_tiny;
          Alcotest.test_case "accept threshold" `Quick test_accept_threshold;
          Alcotest.test_case "supplied per_cell buffer" `Quick
            test_chi2_supplied_per_cell;
          QCheck_alcotest.to_alcotest prop_chi2_khist_equals_dense;
        ] );
      ( "workspace",
        [
          Alcotest.test_case "ws oracle = allocating oracle" `Quick
            test_ws_oracle_matches_allocating;
          Alcotest.test_case "ws oracle reuses buffers" `Quick
            test_ws_oracle_reuses_buffers;
        ] );
      ( "counts-oracle",
        [
          Alcotest.test_case "exact sums" `Quick test_counts_oracle_exact_sum;
          Alcotest.test_case "poissonized moments" `Quick
            test_counts_oracle_poissonized_moments;
          Alcotest.test_case "stream lawful" `Quick
            test_counts_oracle_stream_lawful;
          Alcotest.test_case "ws = allocating" `Quick
            test_counts_ws_matches_allocating;
          Alcotest.test_case "ws reuses buffers" `Quick
            test_counts_ws_reuses_buffers;
          Alcotest.test_case "split-tree draws pinned" `Quick
            test_split_tree_draws_pinned;
          Alcotest.test_case "all constructors: exact sums" `Quick
            test_all_oracles_exact_sum;
          Alcotest.test_case "all constructors: stream in domain" `Quick
            test_all_oracles_stream_in_domain;
          Alcotest.test_case "all constructors: poissonized metering" `Quick
            test_all_oracles_poissonized_metering;
          Alcotest.test_case "chi2 marginals: counts = stream" `Slow
            test_counts_vs_stream_chi2_marginals;
          Alcotest.test_case "verdict distributions: counts = stream" `Slow
            test_counts_vs_stream_verdicts;
        ] );
      ( "amplify",
        [
          Alcotest.test_case "verdict majority" `Quick test_verdict_majority;
          Alcotest.test_case "repetitions_for" `Quick test_repetitions_for;
          Alcotest.test_case "majority_vote" `Quick test_majority_vote;
          Alcotest.test_case "boosted" `Quick test_boosted_amplifies;
        ] );
      ( "budget_oracle",
        [
          Alcotest.test_case "metering" `Quick test_budget_metering;
          Alcotest.test_case "cap" `Quick test_budget_cap;
          Alcotest.test_case "tester respects plan" `Slow
            test_tester_respects_plan;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "basic" `Quick test_fingerprint_basic;
          Alcotest.test_case "l2 estimate" `Quick test_fingerprint_l2;
          Alcotest.test_case "good-turing" `Quick test_good_turing;
          Alcotest.test_case "chao1" `Quick test_chao1;
          Alcotest.test_case "entropy" `Quick test_entropy;
        ] );
      ( "gridding",
        [
          Alcotest.test_case "cells" `Quick test_gridding_cells;
          Alcotest.test_case "invalid" `Quick test_gridding_invalid;
          Alcotest.test_case "density" `Quick test_gridding_density;
          Alcotest.test_case "oracle" `Quick test_gridding_oracle_matches_density;
        ] );
      ( "harness",
        [
          Alcotest.test_case "accept rate" `Quick test_accept_rate_deterministic;
          Alcotest.test_case "trials draw samples" `Quick
            test_harness_trials_draw_samples;
        ] );
      ( "parallel determinism",
        [
          Alcotest.test_case "accept_rate jobs-invariant" `Quick
            test_accept_rate_jobs_invariant;
          Alcotest.test_case "run_trials jobs-invariant" `Quick
            test_run_trials_jobs_invariant;
          Alcotest.test_case "median/majority jobs-invariant" `Quick
            test_median_majority_jobs_invariant;
          Alcotest.test_case "chunked scheduling jobs-invariant" `Quick
            test_chunked_scheduling_jobs_invariant;
        ] );
    ]

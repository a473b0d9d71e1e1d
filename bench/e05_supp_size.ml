(* E5 — Proposition 4.2 and Lemma 4.4: the Omega(k / (eps log k)) barrier
   via the support-size reduction.

   Three measurements:
   (a) Lemma 4.4's concentration: over random permutations, the cover of
       the large-support side stays >= 6l/7 (so it is far from H_k);
   (b) the exact distances of both sides to H_k (small side = member,
       large side >= ~1/24-far);
   (c) the sample-complexity shape: a distinct-elements discriminator
       solves the promise problem only once the budget reaches ~m — the
       k-scaling the lower bound transfers to histogram testing.  (The
       1/log m factor separating the bound from m is below empirical
       resolution at these sizes; the k-linear growth is the shape we can
       and do exhibit.) *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E5 (Prop 4.2 + Lemma 4.4: support-size reduction)"
    ~claim:
      "Permuted small-support instances are k-histograms; large-support \
       ones stay 'sprinkled' (cover >= 6l/7 whp) and are ~1/24-far; \
       telling them apart needs a budget growing linearly in k.";
  let n = 4096 in
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  (* (a) cover concentration. *)
  let k = 129 in
  let m = Histotest.Lowerbound.supp_size_m ~k in
  let draws = if mode.Exp_common.quick then 50 else 200 in
  let ok = ref 0 and worst = ref max_int in
  for _ = 1 to draws do
    let large, s =
      Histotest.Lowerbound.supp_size_instance ~side:Histotest.Lowerbound.Large
        ~m ~n ~rng
    in
    let c = Histotest.Lowerbound.cover_of_support large in
    if c >= 6 * s / 7 then incr ok;
    if c < !worst then worst := c
  done;
  Exp_common.row
    "(a) Lemma 4.4 at k=%d (m=%d): cover >= 6l/7 in %d/%d permutations \
     (worst cover %d)@."
    k m !ok draws !worst;
  (* (b) distances. *)
  let (small, s_small), (large, s_large), _ =
    Histotest.Lowerbound.supp_size_pair ~k ~n ~rng
  in
  Exp_common.row
    "(b) tv(small, H_k) = %.4f (support %d);  tv(large, H_k) = %.4f \
     (support %d; 1/24 = %.4f)@."
    (Closest.tv_to_hk small ~k)
    s_small
    (Closest.tv_to_hk large ~k)
    s_large Histotest.Lowerbound.distance_eps1;
  (* (c) worst-side error of the distinct-count discriminator at budgets
     proportional to m: the transition sits at a fixed fraction of m
     across k, i.e. the required budget grows linearly with k. *)
  Exp_common.row
    "@.(c) worst-side error of the distinct-count test at budget gamma*m:@.";
  let gammas = [ 0.125; 0.25; 0.5; 1.0; 2.0 ] in
  Exp_common.row "%6s | %6s" "k" "m";
  List.iter (fun g -> Exp_common.row " | g=%-5.3f" g) gammas;
  Exp_common.row "@.";
  Exp_common.hline ();
  let trials = if mode.Exp_common.quick then 60 else 200 in
  let ks = if mode.Exp_common.quick then [ 33; 65; 129; 257 ]
           else [ 33; 65; 129; 257; 513; 1025 ] in
  List.iter
    (fun k ->
      let m = Histotest.Lowerbound.supp_size_m ~k in
      let expected_distinct support m' =
        let s = float_of_int support in
        s *. (1. -. ((1. -. (1. /. s)) ** float_of_int m'))
      in
      (* The distinct values among m' samples are the nonzero cells of
         their count vector. *)
      let decide m' (oracle : Poissonize.oracle) =
        let distinct =
          Exp_common.count (fun c -> c > 0) (oracle.Poissonize.exact m')
        in
        let s_small = (2 * m / 3) + 1 and s_large = 7 * m / 8 in
        let threshold =
          0.5 *. (expected_distinct s_small m' +. expected_distinct s_large m')
        in
        if float_of_int distinct <= threshold then Verdict.Accept
        else Verdict.Reject
      in
      let rng = Randkit.Rng.create ~seed:(mode.Exp_common.seed + k) in
      Exp_common.row "%6d | %6d" k m;
      List.iter
        (fun gamma ->
          let m' = max 2 (int_of_float (gamma *. float_of_int m)) in
          (* The hard input is a distribution over instances: a fresh
             random permutation (and side), so a fresh split tree, per
             trial. *)
          let errs side expected =
            let wrong = ref 0 in
            for _ = 1 to trials do
              let pmf, _ =
                Histotest.Lowerbound.supp_size_instance ~side ~m ~n ~rng
              in
              let oracle =
                Poissonize.counts_of_tree (Randkit.Rng.split rng)
                  (Split_tree.of_pmf pmf)
              in
              if decide m' oracle <> expected then incr wrong
            done;
            float_of_int !wrong /. float_of_int trials
          in
          let e_yes = errs Histotest.Lowerbound.Small Verdict.Accept in
          let e_no = errs Histotest.Lowerbound.Large Verdict.Reject in
          Exp_common.row " | %7.2f" (Float.max e_yes e_no))
        gammas;
      Exp_common.row "@.")
    ks;
  Exp_common.row
    "@.Expected shape: each row transitions from ~coin-flip to solved at@.";
  Exp_common.row
    "the same fixed fraction of m — i.e. the required budget grows@.";
  Exp_common.row
    "linearly with k (the 1/log k refinement is below empirical@.";
  Exp_common.row "resolution), matching Theorem 1.2's second term.@."

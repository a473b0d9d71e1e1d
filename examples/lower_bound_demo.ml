(* The information-theoretic barriers of Theorem 1.2, demonstrated.

   Run with:  dune exec examples/lower_bound_demo.exe

   Part 1 (Prop. 4.1): the Paninski family Q_eps.  Far from every coarse
   histogram, yet with few samples its collision pattern is statistically
   identical to uniform — any tester at a fraction of the sqrt(n)/eps^2
   budget is blind to it.

   Part 2 (Prop. 4.2): the support-size reduction.  A uniformly permuted
   small-support distribution is always a k-histogram; a permuted large-
   support one is far from H_k because its support stays sprinkled
   (Lemma 4.4) — but telling the two apart is as hard as estimating
   support size. *)

let () =
  let rng = Randkit.Rng.create ~seed:160 in
  let n = 4096 in
  let eps = 0.1 in

  Format.printf "=== Part 1: the Q_eps family (Prop. 4.1) ===@.";
  let q = Histotest.Lowerbound.paninski_instance ~n ~eps ~rng () in
  Format.printf "tv(Q, uniform) = %.3f;  tv(Q, H_16) = %.3f@."
    (Distance.tv q (Pmf.uniform n))
    (Closest.tv_to_hk q ~k:16);

  (* Collision statistics at a starved budget vs the full budget. *)
  let collisions tree m seed =
    let o = Poissonize.counts_of_tree (Randkit.Rng.create ~seed) tree in
    Histotest.Uniformity.collision_count (o.Poissonize.exact m)
  in
  let full = Histotest.Uniformity.budget ~n ~eps () in
  let starved = full / 256 in
  List.iter
    (fun (label, m) ->
      let stats pmf =
        let tree = Split_tree.of_pmf pmf in
        let s = Numkit.Summary.create () in
        for seed = 0 to 19 do
          Numkit.Summary.add s (float_of_int (collisions tree m seed))
        done;
        s
      in
      let su = stats (Pmf.uniform n) and sq = stats q in
      Format.printf
        "%8s budget m=%-7d  collisions: uniform %.1f +/- %.1f vs Q %.1f +/- %.1f@."
        label m (Numkit.Summary.mean su) (Numkit.Summary.stddev su)
        (Numkit.Summary.mean sq) (Numkit.Summary.stddev sq))
    [ ("starved", starved); ("full", full) ];
  Format.printf
    "At the starved budget the two collision distributions overlap;@.";
  Format.printf "at the full budget they separate — the tester can see Q.@.";

  Format.printf "@.=== Part 2: support-size reduction (Prop. 4.2) ===@.";
  let k = 33 in
  let (small, s_small), (large, s_large), m =
    Histotest.Lowerbound.supp_size_pair ~k ~n ~rng
  in
  Format.printf "m = %d; small support %d, large support %d@." m s_small
    s_large;
  Format.printf "cover(small) = %d  -> pieces needed: %d (<= k = %d: histogram)@."
    (Histotest.Lowerbound.cover_of_support small)
    (Khist.pieces_of_pmf small) k;
  Format.printf
    "cover(large) = %d  (Lemma 4.4 promises >= 6l/7 = %d whp)@."
    (Histotest.Lowerbound.cover_of_support large)
    (6 * s_large / 7);
  Format.printf "tv(small, H_%d) = %.4f   tv(large, H_%d) = %.4f@." k
    (Closest.tv_to_hk small ~k) k
    (Closest.tv_to_hk large ~k);
  Format.printf
    "Distinguishing the two from samples is support-size estimation,@.";
  Format.printf
    "which costs Omega(m / log m) samples — the second term of Thm 1.2.@."

(* E13 — The Checking step's dynamic program (Step 10, after CDGR16
   Lemma 4.11): exactness against brute force and cost scaling.

   (a) Exactness: on random small instances with random masks, the DP must
       match the exponential-time reference to 1e-9 — zero mismatches.
   (b) Cost: wall clock vs the number of piecewise cells K at several k —
       the poly(k, 1/eps) term of Theorem 3.1.  The flattened zipf input
       is value-monotone, so this sweep rides the divide-and-conquer
       branch of Closest.fit_cells: ~k K log K oracle calls of O(log K)
       each, i.e. ~k K log^2 K total, instead of the old ~K^2 k dense
       DP (see E18 for the dense-vs-fast comparison). *)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E13 (Step 10: closest-H_k DP)"
    ~claim:
      "The DP is exact (vs brute force) and runs in ~k K log^2 K on \
       monotone inputs, fitting the poly(k,1/eps) running-time term.";
  let rng = Randkit.Rng.create ~seed:mode.Exp_common.seed in
  (* (a) exactness sweep. *)
  let cases = if mode.Exp_common.quick then 200 else 1000 in
  let mismatches = ref 0 in
  for _ = 1 to cases do
    let n = 2 + Randkit.Rng.int rng 9 in
    let k = 1 + Randkit.Rng.int rng 4 in
    let w = Array.init n (fun _ -> 0.05 +. Randkit.Rng.float rng 1.) in
    let pmf = Pmf.of_weights w in
    let mask = Array.init n (fun _ -> Randkit.Rng.float rng 1. < 0.8) in
    let dp = Closest.l1_to_hk ~mask pmf ~k in
    let brute = Refkit.Closest_brute.l1 ~mask pmf ~k in
    if Float.abs (dp -. brute) > 1e-9 then incr mismatches
  done;
  Exp_common.row "(a) exactness: %d mismatches in %d random instances@."
    !mismatches cases;
  (* (b) timing. *)
  Exp_common.row "@.(b) wall clock of tv_to_hk on a K-cell piecewise input:@.";
  Exp_common.row "%6s | %4s | %10s | %16s@." "K" "k" "seconds"
    "s / (k K lg^2 K)";
  Exp_common.hline ();
  (* The fast path made 2048 cells cheap enough for quick mode. *)
  let sizes = if mode.Exp_common.quick then [ 128; 256; 512; 1024; 2048 ]
              else [ 128; 256; 512; 1024; 2048; 4096; 8192 ] in
  List.iter
    (fun cells ->
      List.iter
        (fun k ->
          let n = 4 * cells in
          let pmf =
            Ops.flatten
              (Families.zipf ~n ~s:1.)
              (Partition.equal_width ~n ~cells)
          in
          let _, dt =
            Exp_common.time_of (fun () -> Closest.tv_to_hk pmf ~k)
          in
          let lg = Float.log (float_of_int cells) /. Float.log 2. in
          Exp_common.row "%6d | %4d | %10.4f | %16.2e@." cells k dt
            (dt /. (float_of_int (cells * k) *. lg *. lg)))
        [ 2; 8 ])
    sizes;
  Exp_common.row
    "@.Expected shape: zero mismatches; the normalized column is roughly@.";
  Exp_common.row "flat (the k K log^2 K law of the d&c branch), with the@.";
  Exp_common.row "index build visible at small K.@."

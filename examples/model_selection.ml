(* Model selection (the paper's §1.1 motivation): find the smallest k such
   that the data is a k-histogram within eps, by doubling search over
   tester calls, then hand that k to a histogram learner.

   Run with:  dune exec examples/model_selection.exe *)

let () =
  let n = 2048 in
  let eps = 0.2 in
  let rng = Randkit.Rng.create ~seed:41 in

  (* The hidden distribution is an 8-piece histogram with well-separated
     levels; the analyst does not know that. *)
  let k_star = 8 in
  let hidden = Families.staircase ~n ~k:k_star ~rng in
  Format.printf "Hidden distribution: %d pieces (the analyst doesn't know).@."
    (Khist.pieces_of_pmf hidden);

  (* Doubling search over amplified tester calls.  Every probe gets fresh
     sample access: its own generator over one split tree of the hidden
     distribution. *)
  let tree = Split_tree.of_pmf hidden in
  let sample_access () =
    Poissonize.counts_of_tree (Randkit.Rng.split rng) tree
  in
  let result =
    Histotest.Model_select.run ~make_oracle:sample_access ~k_max:256 ~eps ()
  in
  List.iter
    (fun (k, v) -> Format.printf "  probe k = %-4d -> %a@." k Verdict.pp v)
    result.Histotest.Model_select.probes;
  (match result.Histotest.Model_select.k_hat with
  | None -> Format.printf "No k up to 256 accepted (unexpected).@."
  | Some k_hat ->
      Format.printf "Selected k_hat = %d (true k* = %d), %d samples total.@."
        k_hat k_star result.Histotest.Model_select.samples_used;

      (* Now learn the histogram at the selected complexity — from samples,
         like the tester — and check the result genuinely approximates. *)
      let learned =
        Histotest.Learn.run (sample_access ()) ~k:k_hat ~eps
      in
      Format.printf
        "Learned %d-histogram (from %d samples) approximates within %.4f TV.@."
        k_hat learned.Histotest.Learn.samples_used
        (Distance.tv (Khist.to_pmf learned.Histotest.Learn.hypothesis) hidden);

      (* And that fewer bins would NOT have been enough at this accuracy. *)
      if k_hat > 1 then
        Format.printf "Distance to H_%d (one fewer doubling step): %.4f@."
          (k_hat / 2)
          (Closest.tv_to_hk hidden ~k:(k_hat / 2)))

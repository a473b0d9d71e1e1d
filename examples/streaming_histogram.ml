(* Streaming pipeline: maintain an equi-depth histogram summary over a
   data stream with a Greenwald-Khanna sketch, and use the tester to decide
   whether the maintained bucket count is still adequate after the stream's
   distribution drifts.

   Run with:  dune exec examples/streaming_histogram.exe *)

let () =
  let n = 2048 in
  let buckets = 8 in
  let eps = 0.25 in
  let rng = Randkit.Rng.create ~seed:99 in

  (* Phase 1 of the stream: a clean 8-step histogram distribution. *)
  let phase1 = Families.staircase ~n ~k:8 ~rng in
  (* Phase 2: the workload drifts to a smooth, spiky mixture. *)
  let phase2 =
    Families.mixture
      [ (0.7, Families.bimodal ~n); (0.3, Families.zipf ~n ~s:1.3) ]
  in

  let sh = Stream_hist.create ~n ~buckets ~eps:0.005 in
  let feed pmf count =
    let alias = Alias.of_pmf pmf in
    for _ = 1 to count do
      Stream_hist.observe sh (Alias.draw alias rng)
    done
  in

  let status label pmf =
    let summary = Stream_hist.current_histogram sh in
    let sketch_cells = Stream_hist.sketch_size sh in
    let summary_err = Distance.tv (Khist.to_pmf summary) pmf in
    let oracle =
      Poissonize.counts_of_tree (Randkit.Rng.split rng) (Split_tree.of_pmf pmf)
    in
    let verdict = Histotest.Hist_tester.test oracle ~k:buckets ~eps in
    Format.printf
      "%-18s stream=%7d  sketch=%4d tuples  summary tv=%.3f  tester(H_%d): %a@."
      label (Stream_hist.total sh) sketch_cells summary_err buckets Verdict.pp
      verdict
  in

  Format.printf
    "Maintaining an %d-bucket equi-depth histogram over the stream;@."
    buckets;
  Format.printf
    "the tester audits (from fresh samples) whether %d buckets still suffice.@.@."
    buckets;

  feed phase1 200_000;
  status "after phase 1" phase1;

  feed phase2 200_000;
  status "after drift" phase2;

  Format.printf
    "@.The drifted distribution is no longer an %d-histogram at eps=%.2f:@."
    buckets eps;
  Format.printf "  tv(phase2, H_%d) = %.4f@." buckets
    (Closest.tv_to_hk phase2 ~k:buckets);
  Format.printf
    "A rejecting audit is the signal to re-tune the summary (more buckets@.";
  Format.printf "or a different sketch), before the optimizer goes astray.@."

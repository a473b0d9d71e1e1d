(* Database use-case: choosing the number of histogram buckets for a query
   optimizer's selectivity estimates.

   Run with:  dune exec examples/selectivity.exe

   An attribute's value distribution is skewed (Zipf head + uniform tail +
   a few hot keys).  The engine keeps a k-bucket histogram summary and
   answers range predicates from it.  Too few buckets -> bad estimates;
   too many -> wasted catalog space.  The histogram tester tells us, from
   samples alone, once k is large enough that the distribution "is" a
   k-histogram at accuracy eps — and we verify that this is exactly where
   the selectivity error flattens out. *)

let () =
  let n = 4096 in
  let eps = 0.25 in
  let rng = Randkit.Rng.create ~seed:7 in

  (* The attribute distribution: skewed head, flat tail, three hot keys. *)
  let attribute =
    let zipf = Families.zipf ~n ~s:1.1 in
    let flat = Pmf.uniform n in
    let spikes = Families.spiked ~n ~spikes:3 ~spike_mass:0.9 ~rng in
    Families.mixture [ (0.55, zipf); (0.25, flat); (0.2, spikes) ]
  in

  (* A realistic workload: range scans of mixed width, centered on data. *)
  let queries =
    Workload.data_centered_ranges ~pmf:attribute ~width:64 ~count:400 ~rng
    @ Workload.uniform_ranges ~n ~count:200 ~rng
  in

  let tree = Split_tree.of_pmf attribute in
  Format.printf
    "k-buckets | tester verdict | mean abs err | max abs err@.";
  Format.printf "----------+----------------+--------------+------------@.";
  List.iter
    (fun k ->
      let oracle = Poissonize.counts_of_tree (Randkit.Rng.split rng) tree in
      let verdict = Histotest.Hist_tester.test oracle ~k ~eps in
      let summary = Construct.v_optimal attribute ~k in
      let report = Selectivity.evaluate attribute summary queries in
      Format.printf "%9d | %14s | %12.5f | %10.5f@." k
        (Verdict.to_string verdict)
        report.Selectivity.mean_abs report.Selectivity.max_abs)
    [ 2; 4; 8; 16; 32; 64 ];

  Format.printf
    "@.Reading: once the tester starts accepting, adding buckets no longer@.";
  Format.printf
    "buys much selectivity accuracy — that k is the right summary size.@."

(* E6 — Theorem 3.1 running time:
   sqrt(n)*poly(log k, 1/eps) + poly(k, 1/eps).

   Bechamel wall-time benches of the cost centers:
   - the ADK15 testing stage (the sqrt(n)-driven part);
   - the closest-H_k checking DP (the poly(k)-driven part, in K);
   - the full Algorithm 1 pipeline at a small n.
   Plus a direct wall-clock table of the full tester across n, whose
   s/sqrt(n) ratio column exposes the sublinear growth. *)

open Bechamel

let eps = 0.25
let k = 4

let adk15_test n =
  let p = Pmf.uniform n in
  let oracle =
    Poissonize.counts_of_tree (Randkit.Rng.create ~seed:5) (Split_tree.of_pmf p)
  in
  Test.make
    ~name:(Printf.sprintf "adk15 n=%d" n)
    (Staged.stage (fun () ->
         ignore (Histotest.Adk15.run oracle ~dstar:p ~eps)))

let check_dp cells =
  let n = 4 * cells in
  let pmf =
    Ops.flatten (Families.zipf ~n ~s:1.) (Partition.equal_width ~n ~cells)
  in
  Test.make
    ~name:(Printf.sprintf "check-dp K=%d" cells)
    (Staged.stage (fun () -> ignore (Closest.tv_to_hk pmf ~k)))

let full_pipeline n =
  let rng = Randkit.Rng.create ~seed:3 in
  let p = Families.staircase ~n ~k ~rng in
  let oracle =
    Poissonize.counts_of_tree (Randkit.Rng.split rng) (Split_tree.of_pmf p)
  in
  Test.make
    ~name:(Printf.sprintf "algorithm1 n=%d" n)
    (Staged.stage (fun () -> ignore (Histotest.Hist_tester.run oracle ~k ~eps)))

let benchmark tests =
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock raw
      in
      (* Bechamel hands back a Hashtbl; sort by test name so the report
         order is deterministic, not hash-bucket order (histolint:
         det/hashtbl-order). *)
      Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols) ->
             match Analyze.OLS.estimates ols with
             | Some (t :: _) ->
                 Exp_common.row "  %-24s %12.3f ms/run@." name (t /. 1e6)
             | _ -> Exp_common.row "  %-24s (no estimate)@." name))
    tests

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E6 (Thm 3.1: running time)"
    ~claim:
      "Wall time = sqrt(n)-driven testing + poly(k)-driven DP; the total \
       is sublinear in n.";
  let adk_sizes =
    if mode.Exp_common.quick then [ 1024; 4096; 16384 ]
    else [ 1024; 4096; 16384; 65536; 262144 ]
  in
  let dp_sizes =
    if mode.Exp_common.quick then [ 128; 256; 512 ]
    else [ 128; 256; 512; 1024; 2048 ]
  in
  Exp_common.row "Bechamel OLS estimates (monotonic clock):@.";
  benchmark (List.map adk15_test adk_sizes);
  benchmark (List.map check_dp dp_sizes);
  benchmark [ full_pipeline 1024 ];
  Exp_common.row "@.Full pipeline wall clock (one run each):@.";
  Exp_common.row "%8s | %10s | %12s@." "n" "seconds" "s / sqrt(n)";
  Exp_common.hline ();
  List.iter
    (fun n ->
      let rng = Randkit.Rng.create ~seed:17 in
      let p = Families.staircase ~n ~k ~rng in
      let oracle =
        Poissonize.counts_of_tree (Randkit.Rng.split rng) (Split_tree.of_pmf p)
      in
      let _, dt =
        Exp_common.time_of (fun () -> Histotest.Hist_tester.run oracle ~k ~eps)
      in
      Exp_common.row "%8d | %10.3f | %12.2e@." n dt
        (dt /. sqrt (float_of_int n)))
    adk_sizes;
  Exp_common.row
    "@.Expected shape: adk15's budget scales ~sqrt(n) per quadrupling; its@.";
  Exp_common.row
    "wall time grows faster, since the counts oracle splits down to every@.";
  Exp_common.row
    "occupied element of this full-support instance.  check-dp ~K log^2 K@.";
  Exp_common.row
    "(the d&c fast path; dense was ~K^2), and the full pipeline's@.";
  Exp_common.row "s/sqrt(n) column is roughly flat.@."

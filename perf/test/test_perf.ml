(* Unit tests for the benchmark's own rules: latency order statistics,
   the run-set comparison, and BENCHMARK.json's format. *)

open Perfkit

let sorted_range n = Array.init n (fun i -> i + 1)

let tail_opt =
  Alcotest.(option (pair (float 0.) int))

(* --- latency ------------------------------------------------------- *)

let test_tail_rule () =
  Alcotest.check tail_opt "19 samples: no percentile has 10 beyond it" None
    (Quantile.tail (sorted_range 19));
  Alcotest.check tail_opt "20 samples: the median" (Some (0.5, 10))
    (Quantile.tail (sorted_range 20));
  Alcotest.check tail_opt "999 samples: p90" (Some (0.9, 900))
    (Quantile.tail (sorted_range 999));
  Alcotest.check tail_opt "1000 samples: p99" (Some (0.99, 990))
    (Quantile.tail (sorted_range 1000));
  Alcotest.check tail_opt "10000 samples: p99.9" (Some (0.999, 9990))
    (Quantile.tail (sorted_range 10000))

let test_failures_are_infinite () =
  (* 10 answered requests and 11 that failed *)
  let v = Quantile.Ivec.create () in
  for i = 1 to 10 do
    Quantile.Ivec.push v (1000 * i)
  done;
  for _ = 1 to 11 do
    Quantile.Ivec.push v Quantile.failed
  done;
  let s = Quantile.Ivec.sorted v in
  Alcotest.(check (float 0.)) "p40 is an answered request" 9000.
    (Quantile.to_float_ns (Quantile.percentile s 0.4));
  Alcotest.(check bool) "p50 misses every limit" true
    (Float.equal (Quantile.to_float_ns (Quantile.percentile s 0.5)) Float.infinity);
  Alcotest.check tail_opt "the tail sees the failures" (Some (0.5, Quantile.failed))
    (Quantile.tail s)

let test_quartiles_match_python () =
  let q = Alcotest.(triple (float 1e-12) (float 1e-12) (float 1e-12)) in
  (* statistics.quantiles(xs, n=4) *)
  Alcotest.check q "1..10" (2.75, 5.5, 8.25)
    (Quantile.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "two values" (0.75, 1.5, 2.25) (Quantile.quartiles [| 2.; 1. |]);
  Alcotest.check q "three values" (1., 2., 3.) (Quantile.quartiles [| 3.; 1.; 2. |]);
  Alcotest.check q "seven values" (2., 4., 7.)
    (Quantile.quartiles [| 5.; 1.; 4.; 2.; 3.; 9.; 7. |]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Quantile.median [| 4.; 1.; 3.; 2. |])

(* --- compare ------------------------------------------------------- *)

let status =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Compare.status_to_string s))
    ( = )

let base = [| 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100.3 |]
let scaled f = Array.map (fun x -> x *. f) base

let judge better a b = (Compare.judge ~better ~bound:0.1 a b).Compare.status

let test_compare_rule () =
  Alcotest.check status "same runs" Compare.Unchanged (judge Spec.Higher base base);
  Alcotest.check status "5% worse, inside the bound" Compare.Unchanged
    (judge Spec.Higher base (scaled 0.95));
  Alcotest.check status "20% more throughput" Compare.Improved
    (judge Spec.Higher base (scaled 1.2));
  Alcotest.check status "20% less throughput" Compare.Regressed
    (judge Spec.Higher base (scaled 0.8));
  Alcotest.check status "20% lower latency" Compare.Improved
    (judge Spec.Lower base (scaled 0.8));
  Alcotest.check status "20% higher latency" Compare.Regressed
    (judge Spec.Lower base (scaled 1.2));
  let wide = [| 50.; 150.; 100.; 60.; 140.; 90.; 110.; 55.; 145.; 100. |] in
  Alcotest.check status "spread wider than the bound" Compare.Unresolved
    (judge Spec.Higher wide wide);
  (* B wins 8 of 10 pairs by 2%: not a gain, and within the bound *)
  let b = Array.mapi (fun i x -> if i < 8 then x *. 1.02 else x *. 0.99) base in
  Alcotest.check status "wins 8 of 10" Compare.Unchanged (judge Spec.Higher base b);
  let r = Compare.judge ~better:Spec.Higher ~bound:0.1 base b in
  Alcotest.(check (float 1e-12)) "share of pairs won" 0.8 r.Compare.won;
  (* set-up times near 4 ms, their quartiles 30 % apart *)
  let setup = [| 0.0035; 0.0041; 0.0047; 0.0036; 0.0046; 0.0040; 0.0034; 0.0048; 0.0039; 0.0045 |] in
  let slower = Array.map (fun x -> x +. 0.002) setup in
  let floored a b = (Compare.judge ~better:Spec.Lower ~bound:0.25 ~floor:0.005 a b).Compare.status in
  Alcotest.check status "spread wider than the bound" Compare.Unresolved
    (judge Spec.Lower setup setup);
  Alcotest.check status "spread under the floor" Compare.Unchanged (floored setup setup);
  Alcotest.check status "2 ms slower, under the floor" Compare.Unchanged (floored setup slower);
  Alcotest.check status "6 ms slower, past the floor" Compare.Regressed
    (floored setup (Array.map (fun x -> x +. 0.006) setup))

(* --- BENCHMARK.json ------------------------------------------------ *)

let bench () =
  match Spec.load "../../BENCHMARK.json" with Ok b -> b | Error msg -> Alcotest.fail msg

let test_benchmark_json () =
  let b = bench () in
  Alcotest.(check (list string)) "no problems" [] (Spec.problems b);
  Alcotest.(check (list string))
    "workloads" [ "serve-small"; "serve-large"; "serve-verdict"; "alg1-trials" ] b.Spec.workloads

let test_format_rules () =
  let yes = Alcotest.(check bool) in
  yes "plain name" true (Spec.valid_name "lat_p50_us");
  yes "dotted name" true (Spec.valid_name "service.batch.push.ns_per_line");
  yes "leading digit" true (Spec.valid_name "9x");
  yes "leading dot" false (Spec.valid_name ".x");
  yes "space" false (Spec.valid_name "a b");
  yes "65 characters" false (Spec.valid_name (String.make 65 'a'));
  let b = bench () in
  yes "one workload is too few" true
    (Spec.problems { b with Spec.workloads = [ "serve-small" ] } <> []);
  let e2e = List.hd b.Spec.end_to_end in
  yes "17 end-to-end metrics are too many" true
    (Spec.problems { b with Spec.end_to_end = List.init 17 (fun _ -> e2e) } <> []);
  yes "bad per-layer name" true
    (Spec.problems
       {
         b with
         Spec.per_layer =
           { Spec.name = "bad name"; unit_ = "ns"; better = Spec.Lower } :: b.Spec.per_layer;
       }
    <> [])

(* The rows of a table in a section of perf/README.md whose first cell
   is a `quoted` name, split into cells. *)
let table_rows ~section text =
  let inside = ref false in
  List.filter_map
    (fun line ->
      if String.starts_with ~prefix:"## " line then begin
        inside := String.equal line section;
        None
      end
      else if !inside && String.starts_with ~prefix:"| `" line then
        Some (List.map String.trim (String.split_on_char '|' line))
      else None)
    (String.split_on_char '\n' text)

let quoted cell = List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' cell)

(* The README's end-to-end table lists every end-to-end measurement a run
   makes; its gated rows, with a bound, are BENCHMARK.json's end-to-end
   metrics, and the others are the record's diagnostics.  Its per-layer
   table names, for each per-layer metric, the end-to-end measurements it
   should move and the workloads it is measured on. *)
let test_readme_tables () =
  let b = bench () in
  let text = In_channel.with_open_bin "../README.md" In_channel.input_all in
  let e2e =
    List.map
      (function
        | _ :: name :: _unit :: _better :: bound :: _ ->
            (List.hd (quoted name), float_of_string_opt bound)
        | row -> Alcotest.fail ("malformed end-to-end row: " ^ String.concat "|" row))
      (table_rows ~section:"## End-to-end metrics" text)
  in
  Alcotest.(check (list (pair string (float 0.))))
    "gated rows are BENCHMARK.json's end-to-end metrics, with their bounds"
    (List.map (fun (m, bound) -> (m.Spec.name, bound)) b.Spec.end_to_end)
    (List.filter_map (fun (n, bound) -> Option.map (fun x -> (n, x)) bound) e2e);
  let rows =
    List.map
      (function
        | _ :: name :: _unit :: _layer :: moves :: on :: _ ->
            (List.hd (quoted name), quoted moves, quoted on)
        | row -> Alcotest.fail ("malformed per-layer row: " ^ String.concat "|" row))
      (table_rows ~section:"## Per-layer metrics" text)
  in
  Alcotest.(check (list string))
    "one row per per-layer metric, in BENCHMARK.json's order"
    (List.map (fun m -> m.Spec.name) b.Spec.per_layer)
    (List.map (fun (n, _, _) -> n) rows);
  List.iter
    (fun (name, moves, on) ->
      List.iter
        (fun m ->
          if not (List.mem_assoc m e2e) then
            Alcotest.failf "%s should move %s, which is not an end-to-end measurement" name m)
        moves;
      (* only the trace's own gates move nothing *)
      if moves = [] && not (String.starts_with ~prefix:"trace." name) then
        Alcotest.failf "%s names no end-to-end measurement" name;
      if on = [] then Alcotest.failf "%s names no workload" name;
      List.iter
        (fun w ->
          if not (List.mem w b.Spec.workloads) then
            Alcotest.failf "%s is measured on %s, which is not a workload" name w)
        on)
    rows

let () =
  Alcotest.run "perf"
    [
      ( "latency",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "failures count as infinite latency" `Quick
            test_failures_are_infinite;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles_match_python;
        ] );
      ("compare", [ Alcotest.test_case "status rule" `Quick test_compare_rule ]);
      ( "benchmark.json",
        [
          Alcotest.test_case "valid" `Quick test_benchmark_json;
          Alcotest.test_case "format rules" `Quick test_format_rules;
          Alcotest.test_case "README tables" `Quick test_readme_tables;
        ] );
    ]

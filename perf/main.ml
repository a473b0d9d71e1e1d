(* histobench: the end-to-end and per-layer benchmark for histotestd and
   Algorithm 1 trials.

     main.exe --workload W --seed S --seconds T --trace 0   measured run
     main.exe --workload W --seed S --trace 1               traced run
     main.exe compare A B                                   two sets of runs

   A measured run prints every end-to-end metric BENCHMARK.json names, by
   name with its unit, then a JSON record (workload, provenance,
   diagnostics, result), then the result line {"correct","attempted",
   "failed","metrics"}.  What a run measures beyond BENCHMARK.json's
   metrics goes to the record's diagnostics.  The traced run prints the
   per-layer metrics the same way.  See perf/README.md. *)

open Perfkit

let quick_seconds = 2.

let num x = Jsonl.Num x

let metrics_json (defs : Spec.metric list) values =
  Jsonl.Obj
    (List.map
       (fun (m : Spec.metric) ->
         ( m.Spec.name,
           Jsonl.Obj
             [ ("value", num (List.assoc m.Spec.name values)); ("unit", Jsonl.Str m.Spec.unit_) ] ))
       defs)

let bench_file = "BENCHMARK.json"

(* The host is probed before the workload starts: once the generator
   pins itself to one CPU, nproc and the recommended domain count read 1. *)
let provenance ~seed ~seconds ~quick =
  let opt = function Some s -> Jsonl.Str s | None -> Jsonl.Null in
  let nproc = Option.bind (Proc.probe "nproc" []) int_of_string_opt in
  let domains = Domain.recommended_domain_count () in
  let commit =
    if Sys.file_exists ".git" then Proc.probe "git" [ "rev-parse"; "HEAD" ] else None
  in
  fun ~phases ->
    Jsonl.Obj
      [
        ("seed", num (float_of_int seed));
        ("seconds", num seconds);
        ("quick", Jsonl.Bool quick);
        ("phases", Jsonl.Obj (List.map (fun (k, v) -> (k, num v)) phases));
        ("nproc", match nproc with Some k -> num (float_of_int k) | None -> Jsonl.Null);
        ("recommended_domains", num (float_of_int domains));
        ("ocaml", Jsonl.Str Sys.ocaml_version);
        ("commit", opt commit);
      ]

(* Human-readable lines, the record, and the result as the last line.
   [values] holds everything the run measured: the ones [defs] names are
   the metrics, the rest diagnostics. *)
let report ~workload ~trace ~prov ~diagnostics ~defs ~values ~correct ~attempted
    ~failed =
  let named k = List.exists (fun (m : Spec.metric) -> String.equal m.Spec.name k) defs in
  match List.find_opt (fun (m : Spec.metric) -> not (List.mem_assoc m.Spec.name values)) defs with
  | Some m ->
      Printf.eprintf "histobench: %s names %s, which this run does not measure\n"
        bench_file m.Spec.name;
      2
  | None ->
      Printf.printf "histobench %s (%s)\n" workload (if trace then "traced" else "measured");
      List.iter
        (fun (m : Spec.metric) ->
          Printf.printf "  %-44s %.6g %s\n" m.Spec.name (List.assoc m.Spec.name values)
            m.Spec.unit_)
        defs;
      let result =
        Jsonl.Obj
          [
            ("correct", Jsonl.Bool correct);
            ("attempted", num (float_of_int attempted));
            ("failed", num (float_of_int failed));
            ("metrics", metrics_json defs values);
          ]
      in
      let extra = List.filter_map (fun (k, v) -> if named k then None else Some (k, num v)) values in
      print_endline
        (Jsonl.to_string
           (Jsonl.Obj
              [
                ("workload", Jsonl.Str workload);
                ("trace", Jsonl.Bool trace);
                ("provenance", prov);
                ("diagnostics", Jsonl.Obj (extra @ diagnostics));
                ("result", result);
              ]));
      print_endline (Jsonl.to_string result);
      if correct then 0 else 1

let measured ~bench ~prov ~daemon ~workload ~seed ~seconds =
  let serve f =
    let r = f () in
    let failed = Loadgen.tally.Loadgen.failed in
    ( r.Serve.measures,
      r.Serve.phases,
      r.Serve.diagnostics,
      r.Serve.correct && failed = 0,
      Loadgen.tally.Loadgen.attempted,
      failed )
  in
  let values, phases, diagnostics, correct, attempted, failed =
    match workload with
    | "serve-small" ->
        serve (fun () -> Serve.run_two_phase ~exe:daemon ~seed ~seconds Gen.serve_small)
    | "serve-large" ->
        serve (fun () -> Serve.run_two_phase ~exe:daemon ~seed ~seconds Gen.serve_large)
    | "serve-verdict" -> serve (fun () -> Serve.run_verdict ~exe:daemon ~seed ~seconds)
    | _ ->
        let r = Alg1.run ~seed ~seconds in
        ( r.Alg1.measures,
          [ ("trials_s", r.Alg1.elapsed_s) ],
          [
            ("alg1.trials", num (float_of_int r.Alg1.trials));
            ("alg1.trials_per_s", num (float_of_int r.Alg1.trials /. r.Alg1.elapsed_s));
            ("alg1.yes_accept", num r.Alg1.yes_accept);
            ("alg1.no_accept", num r.Alg1.no_accept);
          ],
          Alg1.correct r,
          r.Alg1.trials,
          r.Alg1.failed )
  in
  report ~workload ~trace:false
    ~prov:(prov ~phases)
    ~diagnostics ~defs:(List.map fst bench.Spec.end_to_end) ~values ~correct ~attempted
    ~failed

let traced ~bench ~prov ~workload ~seed ~quick =
  let o = Trace.run ~seed ~sizes:(if quick then Trace.quick else Trace.full) in
  let diagnostics =
    [
      ("trace.coverage_by_workload", Jsonl.Obj (List.map (fun (w, c) -> (w, num c)) o.Trace.coverage));
      ("trace.overhead_by_workload", Jsonl.Obj (List.map (fun (w, c) -> (w, num c)) o.Trace.overhead));
      ("trace.spans", Jsonl.Str o.Trace.spans_file);
    ]
  in
  report ~workload ~trace:true
    ~prov:(prov ~phases:[])
    ~diagnostics
    ~defs:bench.Spec.per_layer ~values:o.Trace.metrics ~correct:o.Trace.ok ~attempted:o.Trace.attempted
    ~failed:o.Trace.failed

let workloads = [ "serve-small"; "serve-large"; "serve-verdict"; "alg1-trials" ]

let run workload seed seconds trace quick daemon =
  let seconds = if quick then quick_seconds else seconds in
  match Spec.load bench_file with
  | Error msg ->
      Printf.eprintf "histobench: %s: %s\n" bench_file msg;
      2
  | Ok _ when not (Sys.file_exists daemon) ->
      Printf.eprintf "histobench: no daemon binary at %s (build bin/histotestd.exe)\n" daemon;
      2
  | Ok bench when not (List.mem workload bench.Spec.workloads && List.mem workload workloads) ->
      Printf.eprintf "histobench: %s is not a workload of both %s and this benchmark\n"
        workload bench_file;
      2
  | Ok bench ->
    (* exit through at_exit, which stops the daemon, on SIGTERM, SIGINT
       and a reader of our output going away *)
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 2));
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Proc.ensure_tmp ();
    let prov = provenance ~seed ~seconds ~quick in
    if trace then traced ~bench ~prov ~workload ~seed ~quick
    else measured ~bench ~prov ~daemon ~workload ~seed ~seconds

let compare a b =
  match Spec.load bench_file with
  | Error msg ->
      Printf.eprintf "histobench: %s: %s\n" bench_file msg;
      2
  | Ok spec -> if Compare.main ~bench:spec ~a ~b then 0 else 1

open Cmdliner

let workload_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Seed for every generated input.")

let seconds_arg =
  Arg.(
    value & opt float 20.
    & info [ "seconds" ] ~docv:"T"
        ~doc:"Measured time per run (serve-small and serve-large split it into a \
              closed-loop and an open-loop half).")

let trace_arg =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"1: the traced in-process run, printing the per-layer metrics.")

let quick_arg =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Smoke mode: 1 s phases, a few trials, a smaller trace; every check stays on.")

let daemon_arg =
  Arg.(
    value
    & opt string "_build/default/bin/histotestd.exe"
    & info [ "daemon" ] ~docv:"PATH" ~doc:"The histotestd binary under test.")

let run_term =
  Term.(const run $ workload_arg $ seed_arg $ seconds_arg $ trace_arg $ quick_arg $ daemon_arg)

let compare_cmd =
  let file n doc = Arg.(required & pos n (some file) None & info [] ~docv:doc) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two sets of runs (files holding their output) under \
          BENCHMARK.json's bounds, metric by metric.")
    Term.(const compare $ file 0 "A" $ file 1 "B")

let () =
  let info = Cmd.info "histobench" ~doc:"histotestd and Algorithm 1 benchmark" in
  exit (Cmd.eval' (Cmd.group ~default:run_term info [ compare_cmd ]))

(* Regenerates test/lint_fixtures/GOLDEN.txt (`make lint-fixtures`):
   the full human-readable report — findings, suppressed sites, audit
   trail — for the fixture tree, rendered exactly as test_lint.ml
   re-renders it from the engine's report.  Run it, eyeball the diff,
   commit; the golden test fails on any drift. *)

module Engine = Histolint_lib.Engine
module Finding = Histolint_lib.Finding

let fixture_root =
  List.find Sys.file_exists
    [
      "lint_fixtures";
      "_build/default/test/lint_fixtures";
      "test/lint_fixtures";
    ]

let () =
  let r =
    Engine.scan_paths ~lib_prefixes:[ "test/lint_fixtures/" ] [ fixture_root ]
  in
  List.iter (fun f -> print_endline (Finding.to_human f)) r.Engine.findings;
  List.iter
    (fun f -> print_endline (Finding.to_human f ^ " (suppressed)"))
    r.Engine.suppressed;
  List.iter (fun a -> print_endline (Finding.audit_to_human a)) r.Engine.audit

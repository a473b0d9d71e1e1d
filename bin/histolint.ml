(* histolint — static analysis over the compiled typedtrees.

   Usage:  histolint [--json] [--rules] [--explain RULE] [PATH...]
   PATHs are .cmt files or directories searched recursively (default:
   _build/default, falling back to the current directory).  Exits 1 when
   any unsuppressed error-severity finding remains, and 2 on a usage
   error, a path that does not exist, or a scan that found no .cmt
   file. *)

let usage = "histolint [--json] [--rules] [--explain RULE] [PATH...]"

let () =
  let json = ref false in
  let show_rules = ref false in
  let explain = ref None in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " emit the report as one JSON object");
      ("--rules", Arg.Set show_rules, " list the rule set and exit");
      ( "--explain",
        Arg.String (fun r -> explain := Some r),
        "RULE print the full rationale for one rule and exit" );
    ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  (match !explain with
  | Some r -> (
      match Histolint_lib.Rules.of_name r with
      | Some rule ->
          print_endline (Histolint_lib.Rules.explain rule);
          exit 0
      | None ->
          Printf.eprintf
            "histolint: unknown rule `%s` (histolint --rules lists them)\n" r;
          exit 2)
  | None -> ());
  if !show_rules then begin
    List.iter
      (fun r ->
        Printf.printf "%-28s %-8s %s\n"
          (Histolint_lib.Rules.name r)
          (Histolint_lib.Rules.severity_name (Histolint_lib.Rules.severity r))
          (Histolint_lib.Rules.describe r))
      Histolint_lib.Rules.all;
    exit 0
  end;
  let paths =
    match List.rev !paths with
    | [] ->
        if Sys.file_exists "_build/default" then [ "_build/default" ]
        else [ "." ]
    | ps -> ps
  in
  (* A mistyped path must not pass as a clean scan. *)
  let refuse fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then refuse "histolint: no such path `%s`" p)
    paths;
  let report = Histolint_lib.Engine.scan_paths ~lib_prefixes:[] paths in
  if report.Histolint_lib.Engine.units = 0 then
    refuse "histolint: no .cmt file under %s" (String.concat ", " paths);
  let errors = Histolint_lib.Engine.errors report in
  let warnings = Histolint_lib.Engine.warnings report in
  let rule_counts = Histolint_lib.Engine.rule_counts report in
  if !json then begin
    let objects fs =
      String.concat "," (List.map Histolint_lib.Finding.to_json fs)
    in
    let audit_objects =
      String.concat ","
        (List.map Histolint_lib.Finding.audit_to_json
           report.Histolint_lib.Engine.audit)
    in
    let counts =
      String.concat ","
        (List.map
           (fun (rule, n) ->
             Printf.sprintf "\"%s\":%d"
               (Histolint_lib.Finding.json_escape rule)
               n)
           rule_counts)
    in
    Printf.printf
      "{\"findings\":[%s],\"suppressed\":[%s],\"audit\":[%s],\"rule_counts\":{%s},\"errors\":%d,\"warnings\":%d}\n"
      (objects report.Histolint_lib.Engine.findings)
      (objects report.Histolint_lib.Engine.suppressed)
      audit_objects counts errors warnings
  end
  else begin
    List.iter
      (fun f -> print_endline (Histolint_lib.Finding.to_human f))
      report.Histolint_lib.Engine.findings;
    List.iter
      (fun f ->
        Printf.printf "%s (suppressed)\n" (Histolint_lib.Finding.to_human f))
      report.Histolint_lib.Engine.suppressed;
    List.iter
      (fun a ->
        print_endline (Histolint_lib.Finding.audit_to_human a))
      report.Histolint_lib.Engine.audit;
    if not (List.is_empty rule_counts) then
      Printf.printf "by rule: %s\n"
        (String.concat ", "
           (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) rule_counts));
    Printf.printf "histolint: %d error%s, %d warning%s, %d suppressed, %d \
                   audited suppression site%s\n"
      errors
      (if errors = 1 then "" else "s")
      warnings
      (if warnings = 1 then "" else "s")
      (List.length report.Histolint_lib.Engine.suppressed)
      (List.length report.Histolint_lib.Engine.audit)
      (if List.length report.Histolint_lib.Engine.audit = 1 then "" else "s")
  end;
  if errors > 0 then exit 1

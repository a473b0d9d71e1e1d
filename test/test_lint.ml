(* Golden test for histolint: lint the deliberately-violating fixture
   library (test/lint_fixtures/) and assert the exact findings list —
   file, line, and rule for every violation — plus the suppressed list
   and the audit trail for every suppression form ([@histolint.allow],
   [@histolint.disjoint], [@histolint.alloc_ok], [@@histolint.keep]).

   The fixture tree lives under test/, where most rules are scoped off;
   the engine's [lib_prefixes] seam reclassifies it as lib/ code.  The
   fixtures cover both interprocedural passes: a race reached only
   through a helper call resolved via the summary table, a generator
   draw ([Rng.bits53]) on a captured generator, the task paths of
   bad_race_paths.ml (a local function passed by name, a local helper, a
   module-level function as the task, a captured record's mutable field,
   a submodule's own ref named as module-level), and a hot-path
   allocation one call deep, also from inside a [struct] submodule
   calling its enclosing module.  The bad_alias_*.ml fixtures reach a
   rule only through a module alias ([module H = Hashtbl],
   [let module R = Random], [module S = Stdlib], [module P =
   Parkit.Pool]); bad_raise_arg.ml puts a rule site inside an
   [invalid_arg] argument, which hot/alloc exempts.  The dead-export
   fixtures pair a violating, a kept and a reasonless-keep export with
   exports reached only through [open], a module alias and a functor
   argument (dead_user.ml), which must not be findings; a suppression of
   any form that covers nothing (unused_suppressions.ml,
   unused_keep.mli) is a finding. *)

module Engine = Histolint_lib.Engine
module Finding = Histolint_lib.Finding
module Rules = Histolint_lib.Rules

(* Tests run in _build/default/test; the fixture library's cmt files are
   compiled into the .objs tree next to it; the stanza's dependency on
   the fixtures' @check alias guarantees they exist.  `dune exec` from the
   repo root uses a different cwd, so probe the candidates. *)
let fixture_root =
  List.find Sys.file_exists
    [
      "lint_fixtures";
      "_build/default/test/lint_fixtures";
      "test/lint_fixtures";
    ]

let report =
  lazy
    (Engine.scan_paths ~lib_prefixes:[ "test/lint_fixtures/" ] [ fixture_root ])

let triple f = (f.Finding.file, f.Finding.line, Rules.name f.Finding.rule)

(* Sorted by (file, line, col, rule, message), as the engine emits
   them.  The good_race / good_hot fixtures must contribute nothing. *)
let expected_findings =
  [
    ("test/lint_fixtures/bad_alias_compare.ml", 6, "float/poly-compare");
    ("test/lint_fixtures/bad_alias_hashtbl.ml", 6, "det/hashtbl-order");
    ("test/lint_fixtures/bad_alias_pool.ml", 9, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_alias_random.ml", 6, "det/stdlib-random");
    ("test/lint_fixtures/bad_allow.ml", 5, "det/stdlib-random");
    ("test/lint_fixtures/bad_allow.ml", 5, "lint/unknown-allow");
    ("test/lint_fixtures/bad_domain.ml", 4, "par/raw-domain");
    ("test/lint_fixtures/bad_float_compare.ml", 4, "float/poly-compare");
    ("test/lint_fixtures/bad_hashtbl.ml", 5, "det/hashtbl-order");
    ("test/lint_fixtures/bad_hot.ml", 4, "hot/alloc");
    ("test/lint_fixtures/bad_hot_interproc.ml", 4, "hot/alloc");
    ("test/lint_fixtures/bad_hot_submodule.ml", 8, "hot/alloc");
    ("test/lint_fixtures/bad_hot_submodule.ml", 9, "hot/alloc");
    ("test/lint_fixtures/bad_poly_compare.ml", 4, "poly/compare-structural");
    ("test/lint_fixtures/bad_race.ml", 8, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_interproc.ml", 8, "par/shared-mutable-capture");
    (* [record] both reads and writes [tally]: two findings at one site *)
    ( "test/lint_fixtures/bad_race_interproc.ml",
      11,
      "par/shared-mutable-capture" );
    ( "test/lint_fixtures/bad_race_interproc.ml",
      11,
      "par/shared-mutable-capture" );
    ("test/lint_fixtures/bad_race_overlap.ml", 11, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_overlap.ml", 12, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_overlap.ml", 13, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_paths.ml", 10, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_paths.ml", 16, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_paths.ml", 20, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_paths.ml", 20, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_paths.ml", 26, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_paths.ml", 32, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_race_rng.ml", 6, "par/shared-mutable-capture");
    ("test/lint_fixtures/bad_raise_arg.ml", 8, "det/stdlib-random");
    ("test/lint_fixtures/bad_random.ml", 4, "det/stdlib-random");
    ("test/lint_fixtures/bad_toplevel_lazy.ml", 4, "par/toplevel-lazy");
    ("test/lint_fixtures/bad_toplevel_lazy.ml", 5, "par/toplevel-lazy");
    ("test/lint_fixtures/bad_toplevel_lazy.ml", 8, "par/toplevel-lazy");
    ("test/lint_fixtures/bad_wallclock.ml", 3, "det/wallclock");
    ("test/lint_fixtures/dead_export.mli", 5, "dead/unreferenced-export");
    ("test/lint_fixtures/dead_export.mli", 11, "dead/unreferenced-export");
    ("test/lint_fixtures/dead_export.mli", 11, "lint/unknown-allow");
    ("test/lint_fixtures/unused_keep.mli", 4, "lint/unknown-allow");
    ("test/lint_fixtures/unused_suppressions.ml", 6, "lint/unknown-allow");
    ("test/lint_fixtures/unused_suppressions.ml", 9, "lint/unknown-allow");
    ("test/lint_fixtures/unused_suppressions.ml", 13, "lint/unknown-allow");
  ]

let expected_suppressed =
  [
    ("test/lint_fixtures/allowed.ml", 4, "det/stdlib-random");
    ("test/lint_fixtures/allowed_race.ml", 9, "par/shared-mutable-capture");
    ("test/lint_fixtures/dead_export.mli", 8, "dead/unreferenced-export");
  ]

let pp_triples ts =
  String.concat "\n"
    (List.map (fun (f, l, r) -> Printf.sprintf "%s:%d %s" f l r) ts)

let check_triples msg expected got =
  Alcotest.(check string) msg (pp_triples expected) (pp_triples got)

let test_exact_findings () =
  let r = Lazy.force report in
  check_triples "live findings" expected_findings
    (List.map triple r.Engine.findings)

let test_suppressed_counted () =
  let r = Lazy.force report in
  check_triples "suppressed audit trail" expected_suppressed
    (List.map triple r.Engine.suppressed)

let test_audit_trail () =
  (* One entry per suppression site, used-flag included: the unknown
     rule id in bad_allow.ml is present but unused (its finding stayed
     live), the four well-formed sites of unused_suppressions.ml and
     unused_keep.mli cover nothing (each is a finding), and every other
     site covered something.  The reasonless keep is listed too, and its
     export's finding stays live. *)
  let r = Lazy.force report in
  let quad (a : Finding.audit) =
    Printf.sprintf "%s:%d %s used=%b" a.Finding.au_file a.Finding.au_line
      a.Finding.au_kind a.Finding.au_used
  in
  Alcotest.(check (list string))
    "audit entries"
    [
      "test/lint_fixtures/allowed.ml:4 allow used=true";
      "test/lint_fixtures/allowed_hot.ml:6 alloc_ok used=true";
      "test/lint_fixtures/allowed_race.ml:7 disjoint used=true";
      "test/lint_fixtures/bad_allow.ml:5 allow used=false";
      "test/lint_fixtures/dead_export.mli:8 keep used=true";
      "test/lint_fixtures/dead_export.mli:11 keep used=true";
      "test/lint_fixtures/unused_keep.mli:4 keep used=false";
      "test/lint_fixtures/unused_suppressions.ml:6 allow used=false";
      "test/lint_fixtures/unused_suppressions.ml:9 disjoint used=false";
      "test/lint_fixtures/unused_suppressions.ml:13 alloc_ok used=false";
    ]
    (List.map quad r.Engine.audit)

let test_one_violation_per_rule () =
  (* Every rule fires at least once on the fixture tree (counting the
     suppressed sites). *)
  let r = Lazy.force report in
  let fired =
    List.sort_uniq String.compare
      (List.map
         (fun f -> Rules.name f.Finding.rule)
         (r.Engine.findings @ r.Engine.suppressed))
  in
  Alcotest.(check (list string))
    "all rules covered"
    (List.sort String.compare (List.map Rules.name Rules.all))
    fired

let test_severities () =
  let r = Lazy.force report in
  Alcotest.(check int) "errors" 40 (Engine.errors r);
  Alcotest.(check int) "warnings" 1 (Engine.warnings r)

let test_rule_counts () =
  (* Live counts only (suppressed sites excluded), in Rules.all order,
     zero-count rules omitted. *)
  let r = Lazy.force report in
  Alcotest.(check (list (pair string int)))
    "rule counts"
    [
      ("det/stdlib-random", 4);
      ("det/hashtbl-order", 2);
      ("det/wallclock", 1);
      ("float/poly-compare", 2);
      ("poly/compare-structural", 1);
      ("par/raw-domain", 1);
      ("par/shared-mutable-capture", 15);
      ("par/toplevel-lazy", 3);
      ("hot/alloc", 4);
      ("dead/unreferenced-export", 2);
      ("lint/unknown-allow", 6);
    ]
    (Engine.rule_counts r)

let test_scoping_off_in_test_tree () =
  (* Without the lib_prefixes override the fixtures sit under test/, where
     only the everywhere-rules could bite — and none are configured to:
     the same tree must come back clean.  This is what keeps `make lint`
     green on the full repo while the fixtures stay red here. *)
  let r = Engine.scan_paths ~lib_prefixes:[] [ fixture_root ] in
  Alcotest.(check int) "no findings" 0 (List.length r.Engine.findings);
  Alcotest.(check int) "no suppressed" 0 (List.length r.Engine.suppressed);
  Alcotest.(check int) "no audit entries" 0 (List.length r.Engine.audit)

let test_golden_file () =
  (* The committed GOLDEN.txt (regenerated by `make lint-fixtures`)
     must match the engine's current report line for line — full
     messages included, not just (file, line, rule). *)
  let r = Lazy.force report in
  let rendered =
    List.map Finding.to_human r.Engine.findings
    @ List.map
        (fun f -> Finding.to_human f ^ " (suppressed)")
        r.Engine.suppressed
    @ List.map Finding.audit_to_human r.Engine.audit
  in
  let golden_file =
    List.find Sys.file_exists
      [
        "lint_fixtures/GOLDEN.txt";
        "_build/default/test/lint_fixtures/GOLDEN.txt";
        "test/lint_fixtures/GOLDEN.txt";
      ]
  in
  let golden =
    let ic = open_in golden_file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  Alcotest.(check string)
    "GOLDEN.txt is current (run `make lint-fixtures` after changing \
     fixtures or messages)"
    (String.concat "\n" golden)
    (String.concat "\n" rendered)

let test_json_shape () =
  let r = Lazy.force report in
  let json =
    List.map Finding.to_json r.Engine.findings
    @ List.map Finding.audit_to_json r.Engine.audit
  in
  List.iter
    (fun j ->
      Alcotest.(check bool)
        "object shape" true
        (String.length j > 2
        && Char.equal j.[0] '{'
        && Char.equal j.[String.length j - 1] '}'))
    json;
  let contains hay needle =
    let rec go i =
      if i + String.length needle > String.length hay then false
      else if String.equal (String.sub hay i (String.length needle)) needle
      then true
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool)
    "finding has rule field" true
    (contains (List.hd json) "\"rule\":\"");
  let audit_json = Finding.audit_to_json (List.hd r.Engine.audit) in
  Alcotest.(check bool)
    "audit has kind field" true
    (contains audit_json "\"kind\":\"");
  Alcotest.(check bool)
    "audit has used field" true
    (contains audit_json "\"used\":")

let () =
  Alcotest.run "histolint"
    [
      ( "golden",
        [
          Alcotest.test_case "exact findings" `Quick test_exact_findings;
          Alcotest.test_case "suppressed counted" `Quick
            test_suppressed_counted;
          Alcotest.test_case "audit trail" `Quick test_audit_trail;
          Alcotest.test_case "one violation per rule" `Quick
            test_one_violation_per_rule;
          Alcotest.test_case "severities" `Quick test_severities;
          Alcotest.test_case "rule counts" `Quick test_rule_counts;
          Alcotest.test_case "scoped off outside lib" `Quick
            test_scoping_off_in_test_tree;
          Alcotest.test_case "golden file" `Quick test_golden_file;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
    ]

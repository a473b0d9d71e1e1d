type severity = Warn | Error

type t =
  | Det_stdlib_random
  | Det_hashtbl_order
  | Det_wallclock
  | Float_poly_compare
  | Poly_compare_structural
  | Par_raw_domain
  | Par_shared_mutable
  | Par_toplevel_lazy
  | Hot_alloc
  | Dead_unreferenced_export
  | Lint_unknown_allow

type scope = Lib | Lib_parallel | Bin | Test | Bench | Other

let all =
  [
    Det_stdlib_random;
    Det_hashtbl_order;
    Det_wallclock;
    Float_poly_compare;
    Poly_compare_structural;
    Par_raw_domain;
    Par_shared_mutable;
    Par_toplevel_lazy;
    Hot_alloc;
    Dead_unreferenced_export;
    Lint_unknown_allow;
  ]

let name = function
  | Det_stdlib_random -> "det/stdlib-random"
  | Det_hashtbl_order -> "det/hashtbl-order"
  | Det_wallclock -> "det/wallclock"
  | Float_poly_compare -> "float/poly-compare"
  | Poly_compare_structural -> "poly/compare-structural"
  | Par_raw_domain -> "par/raw-domain"
  | Par_shared_mutable -> "par/shared-mutable-capture"
  | Par_toplevel_lazy -> "par/toplevel-lazy"
  | Hot_alloc -> "hot/alloc"
  | Dead_unreferenced_export -> "dead/unreferenced-export"
  | Lint_unknown_allow -> "lint/unknown-allow"

let of_name s = List.find_opt (fun r -> String.equal (name r) s) all

let severity = function
  | Poly_compare_structural -> Warn
  | Det_stdlib_random | Det_hashtbl_order | Det_wallclock | Float_poly_compare
  | Par_raw_domain | Par_shared_mutable | Par_toplevel_lazy | Hot_alloc
  | Dead_unreferenced_export
  | Lint_unknown_allow ->
      Error

let severity_name = function Warn -> "warning" | Error -> "error"

let severity_equal a b =
  match (a, b) with Warn, Warn | Error, Error -> true | _ -> false

let describe = function
  | Det_stdlib_random ->
      "Stdlib.Random outside test/+bench/ breaks seedable, splittable \
       randomness; use Randkit (lib/rng)"
  | Det_hashtbl_order ->
      "Hashtbl.iter/fold/to_seq in lib/ iterate in hash-bucket order, which \
       is not deterministic across key sets; sort or use arrays"
  | Det_wallclock ->
      "Sys.time/Unix.gettimeofday in lib/ make outputs depend on the wall \
       clock; timing belongs in bench/"
  | Float_poly_compare ->
      "polymorphic =/<>/compare/min/max at float is NaN-hostile and boxes on \
       hot paths; use Float.compare/Float.equal/Float.min/Float.max"
  | Poly_compare_structural ->
      "polymorphic comparison at a non-immediate type walks structure, boxes, \
       and can raise on closures; prefer a monomorphic compare"
  | Par_raw_domain ->
      "Domain.spawn outside lib/parallel bypasses Parkit.Pool and its \
       pre-split RNG discipline"
  | Par_shared_mutable ->
      "a closure handed to Parkit.Pool.map/init captures mutable \
       state shared with other domains; use pool-index-disjoint slots or an \
       audited [@histolint.disjoint \"reason\"]"
  | Par_toplevel_lazy ->
      "a module-level lazy value is forced by whichever domain reaches it \
       first; two domains forcing it at once make one of them raise \
       CamlinternalLazy.Undefined; build the value eagerly at module \
       initialisation"
  | Hot_alloc ->
      "a function marked [@histolint.hot] (or one it calls) allocates; hot \
       paths must stay allocation-free, or audit the site with \
       [@histolint.alloc_ok \"reason\"]"
  | Dead_unreferenced_export ->
      "a value a lib/ .mli exports is referenced by no other production unit \
       (test/*.ml does not count); delete it, drop it from the .mli, move it \
       to refkit, or audit it with [@@histolint.keep \"reason\"]"
  | Lint_unknown_allow ->
      "a suppression attribute names an unknown rule id or is missing its \
       audit reason; suppressions must be checkable"

let explain = function
  | Par_shared_mutable ->
      "par/shared-mutable-capture — interprocedural domain-safety lint.\n\n\
       Every closure passed to Parkit.Pool.map/init (or \
       Domain.spawn) may execute on another domain concurrently with its \
       siblings.  The lint computes a capture summary for the closure: every \
       mutable location it can reach (refs, arrays, Bytes, Buffer, Hashtbl, \
       mutable record fields), both directly and through helper calls \
       resolved bottom-up from the per-module summaries.  \
       A closure that reads or writes a captured mutable location is \
       flagged, because a sibling running on another domain can reach the \
       same location: that is a data race, and data races are exactly the \
       nondeterminism the bit-identical replay gates (E20/E21) exist to \
       rule out.\n\n\
       Two patterns are recognized as safe and not flagged:\n\
       \  - index-disjoint slots: `arr.(i) <- v` where the index expression \
       mentions a parameter of the closure itself — each task writes its \
       own slot, and Pool's join is the happens-before edge that publishes \
       the writes;\n\
       \  - state reached only through the closure's own parameters — the \
       pool hands each task its own value.\n\n\
       Anything else needs an audited [@histolint.disjoint \"reason\"] on \
       the call site; the reason is mandatory and lands in the suppression \
       audit trail (JSON `audit` array).\n\n\
       Example finding:\n\
       \  let hits = ref 0 in\n\
       \  Parkit.Pool.map pool (fun x -> if p x then incr hits) data\n\
       \  ^ `hits` is captured by every task; increments race.\n\n\
       Fix: return per-task results via Pool.map, or write to \
       results.(slot) where `slot` derives from the task argument."
  | Hot_alloc ->
      "hot/alloc — hot-path allocation discipline.\n\n\
       Mark a function [@histolint.hot] and the lint checks, transitively \
       through the per-module call summaries, that executing it allocates \
       nothing on the OCaml heap: no closure creation, no tuple/record/\
       variant construction, no partial application, no calls to known \
       allocators (Array.make, String.sub, Printf.sprintf, List.map, ...).  \
       Findings point at the allocating sub-expression, or at the call \
       whose callee allocates (with a witness chain).\n\n\
       Deliberately not flagged:\n\
       \  - `ref`/local mutable state that does not escape — flambda-less \
       ocamlopt unboxes non-escaping refs, and Scan.scan_sub leans on this;\n\
       \  - Int64 arithmetic — the xoshiro draws are written to stay \
       unboxed;\n\
       \  - raise/invalid_arg/failwith/assert guard branches — error paths \
       are allowed to allocate.\n\n\
       An allocation that is considered acceptable (cold resize branch, \
       error rendering) is audited in place:\n\
       \  (grow t [@histolint.alloc_ok \"amortized arena resize\"])\n\
       The reason is mandatory and lands in the audit trail.\n\n\
       Example finding:\n\
       \  let[@histolint.hot] f x = (x, x)\n\
       \  ^ tuple construction allocates 3 words per call."
  | Dead_unreferenced_export ->
      "dead/unreferenced-export — only what serves ships.\n\n\
       Every `val` in the .mli of a lib/ unit must be referenced by some \
       other production unit: lib/, bin/, bench/, perf/, examples/ or the \
       test-only reference library test/reference/ (refkit, which the \
       bench gates run against).  A reference is any qualified path the \
       typedtree mentions — a call, a value passed as an argument, a name \
       reached through `open` or a module alias.  A module used whole (a \
       functor argument, a packed first-class module, a signature \
       coercion, an `include`) counts as using every export.  References \
       from test/*.ml do not count: a test that is an export's only caller \
       tests code nothing ships.  Refkit itself is never a subject.\n\n\
       Fixes, in order of preference: delete the value (and its tests); \
       drop it from the .mli when its own module still uses it; move it to \
       refkit when tests use it as a reference oracle.  Where a reason \
       exists that the code does not show, audit the declaration:\n\
       \  val f : int -> int [@@histolint.keep \"reason\"]\n\
       The reason is mandatory and lands in the audit trail.\n\n\
       Example finding:\n\
       \  lib/x/m.mli: val helper : int -> int\n\
       \  ^ only test/test_x.ml calls M.helper."
  | Lint_unknown_allow ->
      "lint/unknown-allow — suppressions must be checkable.\n\n\
       [@histolint.allow \"rule\"] must name rule ids the engine knows \
       (see --rules); [@histolint.disjoint], [@histolint.alloc_ok] and \
       [@@histolint.keep] must carry a non-empty reason string.  A typo'd \
       rule id would otherwise silently suppress nothing (or worse, rot \
       after a rename); a missing reason defeats the audit trail.  The \
       engine exits non-zero on both."
  | r ->
      (* v1 rules: the one-line description plus the suppression recipe. *)
      Printf.sprintf
        "%s\n\n%s\n\nSuppress a deliberate use with [@histolint.allow \
         \"%s\"] on the expression or binding."
        (name r) (describe r) (name r)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let scope_of_path ~lib_prefixes path =
  let path =
    if has_prefix ~prefix:"./" path then
      String.sub path 2 (String.length path - 2)
    else path
  in
  if List.exists (fun p -> has_prefix ~prefix:p path) lib_prefixes then Lib
  else if has_prefix ~prefix:"lib/parallel/" path then Lib_parallel
  else if has_prefix ~prefix:"lib/" path then Lib
  else if has_prefix ~prefix:"bin/" path then Bin
  else if has_prefix ~prefix:"test/" path then Test
  else if has_prefix ~prefix:"bench/" path then Bench
  else Other

let reference_prefix = "test/reference/"

let is_production ~lib_prefixes path =
  List.exists
    (fun prefix -> has_prefix ~prefix path)
    ([ "lib/"; "bin/"; "bench/"; "perf/"; "examples/"; reference_prefix ]
    @ lib_prefixes)

let applies rule scope =
  match (rule, scope) with
  | Det_stdlib_random, (Lib | Lib_parallel | Bin) -> true
  | Det_hashtbl_order, (Lib | Lib_parallel) -> true
  | Det_wallclock, (Lib | Lib_parallel) -> true
  | Float_poly_compare, (Lib | Lib_parallel | Bin) -> true
  | Poly_compare_structural, (Lib | Lib_parallel | Bin) -> true
  (* lib/parallel is the one place allowed to spawn domains. *)
  | Par_raw_domain, (Lib | Bin) -> true
  (* lib/parallel's own worker loop intentionally shares the task queue;
     the race rule polices pool *clients*. *)
  | Par_shared_mutable, (Lib | Bin) -> true
  | Par_toplevel_lazy, (Lib | Lib_parallel) -> true
  | Hot_alloc, (Lib | Lib_parallel | Bin) -> true
  | Dead_unreferenced_export, (Lib | Lib_parallel) -> true
  (* Not in Test scope: the fixture tree deliberately contains bad
     suppressions, and `make lint` scans those cmts. *)
  | Lint_unknown_allow, (Lib | Lib_parallel | Bin) -> true
  | _, _ -> false

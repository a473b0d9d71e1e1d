(** The histolint engine: loads compiled typedtrees ([.cmt] files, via
    [compiler-libs.common]), walks each unit once ({!Summary}) and runs
    every rule as a check over the records that walk leaves: the
    per-identifier rules and the toplevel-lazy rule, the interprocedural
    domain-safety pass ({!Race}) at every [Parkit.Pool] call site, the
    hot-path allocation pass ({!Alloc}) against the cross-module table,
    and the dead-export pass, which checks each [lib/] interface's
    values against the references of the other production units.

    Suppression: a [[@histolint.allow "rule"]] attribute on an
    expression or a [let]-binding suppresses matching findings inside
    that node; a floating [[@@@histolint.allow "rule"]] suppresses the
    rest of the file; [[@histolint.disjoint "reason"]] on a pool
    application suppresses that site's race findings;
    [[@histolint.alloc_ok "reason"]] on a sub-expression exempts its
    allocations; [[@@histolint.keep "reason"]] on an interface [val]
    keeps an unreferenced export.  Every suppression site lands in the
    [audit] list (with its reason and whether it covered anything).
    Naming an unknown rule id, omitting a mandatory reason, or
    suppressing nothing is itself a [lint/unknown-allow] finding. *)

type report = {
  findings : Finding.t list;  (** live findings, sorted *)
  suppressed : Finding.t list;  (** suppressed by an allow attribute, sorted *)
  audit : Finding.audit list;  (** every suppression site, sorted *)
  units : int;  (** compilation units scanned *)
}

val errors : report -> int
val warnings : report -> int

val rule_counts : report -> (string * int) list
(** Live findings per rule name, rules with zero findings omitted;
    ordered by the [Rules.all] declaration order. *)

val scan_paths : lib_prefixes:string list -> string list -> report
(** Recursively collect [.cmt] files under each path (directories are
    walked in sorted order, so reports are deterministic), summarize
    them all, and lint them against the combined table.  A path that
    does not exist contributes nothing: [units] counts what was found.
    Sources under [lib_prefixes] are classified as [lib/] code; the
    linter's fixture tests use it, and [bin/histolint] passes [[]]. *)

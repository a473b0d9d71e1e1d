(** The histolint engine, v2: loads compiled typedtrees ([.cmt]
    files, via [compiler-libs.common]) and lints them in two passes.

    Pass A runs the one effect walker ({!Summary}) over every
    compilation unit, in memory, on every run, and builds the
    cross-module table.  Pass B walks each typedtree for the v1
    per-expression rules and the suppression attributes only, then
    runs two checks over the unit's summary: the interprocedural
    domain-safety pass ({!Race}) at every [Parkit.Pool] call site and
    the hot-path allocation pass ({!Alloc}).  Once every unit is
    summarized, the dead-export pass checks each [lib/] interface's
    values against the references of the other production units.

    Suppression: a [[@histolint.allow "rule"]] attribute on an
    expression or a [let]-binding suppresses matching findings inside
    that node; a floating [[@@@histolint.allow "rule"]] suppresses the
    rest of the file; [[@histolint.disjoint "reason"]] on a pool
    application suppresses that site's race findings;
    [[@histolint.alloc_ok "reason"]] on a sub-expression exempts its
    allocations; [[@@histolint.keep "reason"]] on an interface [val]
    keeps an unreferenced export.  Every suppression site lands in the
    [audit] list (with its reason and whether it covered anything), and
    naming an unknown rule id — or omitting a mandatory reason — is
    itself a [lint/unknown-allow] finding. *)

type config = {
  lib_prefixes : string list;
      (** extra path prefixes classified as [lib/] — the linter's own
          fixture tree uses this; empty by default *)
}

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

val scan_paths : config -> string list -> report
(** Recursively collect [.cmt] files under each path (directories are
    walked in sorted order, so reports are deterministic), summarize
    them all, and lint them against the combined table.  A path that
    does not exist contributes nothing: [units] counts what was
    found. *)

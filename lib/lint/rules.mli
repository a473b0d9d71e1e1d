(** The histolint rule set, v2.

    Each rule names one static invariant of the determinism / float /
    domain-safety discipline that the runtime QCheck pins cannot enforce
    by construction.  Rules are scoped: most bite only in production
    code (`lib/`, `bin/`), because `test/` and `bench/` legitimately use
    wall clocks and ad-hoc randomness.

    v2 adds two interprocedural passes built on per-function summaries
    (see {!Summary}): [Par_shared_mutable] (closures handed to
    [Parkit.Pool] must not capture shared mutable state) and
    [Hot_alloc] (functions marked [\[@histolint.hot\]] must not
    allocate, transitively), plus [Lint_unknown_allow] which polices
    the suppression attributes themselves.  [Dead_unreferenced_export]
    is whole-program: it checks every [lib/] interface against the
    references the other production units make. *)

type severity = Warn | Error

type t =
  | Det_stdlib_random
      (** [Stdlib.Random] outside [test/]+[bench/]: all randomness must
          flow through [lib/rng] so streams are seedable and
          splittable. *)
  | Det_hashtbl_order
      (** [Hashtbl.iter]/[fold]/[to_seq] in [lib/]: iteration order is
          hash-bucket order, which is not part of any contract. *)
  | Det_wallclock
      (** [Sys.time]/[Unix.gettimeofday] in [lib/]: wall-clock reads
          make outputs run-dependent. *)
  | Float_poly_compare
      (** Polymorphic [=]/[<>]/[compare]/[min]/[max] instantiated at
          [float] (or float containers): NaN-hostile semantics and
          boxing on hot paths.  Use [Float.compare]/[Float.equal]. *)
  | Poly_compare_structural
      (** Polymorphic comparison at a non-immediate type (tuples,
          records, abstract types): walks structure, boxes, and can
          raise on functional values.  Warn-level. *)
  | Par_raw_domain
      (** [Domain.spawn] outside [lib/parallel]: all parallelism goes
          through [Parkit.Pool] so the pre-split-RNG discipline
          holds. *)
  | Par_shared_mutable
      (** A closure passed to [Parkit.Pool.map/init] (or
          [Domain.spawn]) captures a mutable location reachable from a
          sibling task on another domain, and accesses it other than
          through the index-disjoint slot pattern.  Interprocedural:
          helpers the closure calls are resolved through the module
          summaries.  Audited escape hatch:
          [\[@histolint.disjoint "reason"\]]. *)
  | Par_toplevel_lazy
      (** A module-level value of type [Lazy.t] in [lib/]: any domain may
          force it first, and a second domain forcing it while the first
          still runs the suspension raises [CamlinternalLazy.Undefined].
          Build it eagerly at module initialisation, which runs before
          any domain is spawned. *)
  | Hot_alloc
      (** A function marked [\[@histolint.hot\]] — or a function it
          calls, transitively — allocates: closure/tuple/record/variant
          construction, partial application, or a call to a known
          allocator.  Audited escape hatch:
          [\[@histolint.alloc_ok "reason"\]] on the allocating
          sub-expression. *)
  | Dead_unreferenced_export
      (** A [val] in the interface of a [lib/] unit that no other
          production unit references ({!is_production}; [test/*.ml]
          does not count).  A module used whole counts as using all of
          its exports.  Audited escape hatch:
          [\[@@histolint.keep "reason"\]] on the [val]. *)
  | Lint_unknown_allow
      (** A [\[@histolint.allow\]] names a rule id the engine does not
          know, a [\[@histolint.disjoint\]], [\[@histolint.alloc_ok\]]
          or [\[@@histolint.keep\]] is missing its mandatory reason
          string, or any of the four suppresses nothing. *)

(** Where a compilation unit lives, derived from its source path. *)
type scope = Lib | Lib_parallel | Bin | Test | Bench | Other

val all : t list
val name : t -> string

val of_name : string -> t option
(** Inverse of [name]; used to validate suppression attributes. *)

val severity : t -> severity
val severity_name : severity -> string
val severity_equal : severity -> severity -> bool

val describe : t -> string
(** One-line rationale, shown by [histolint --rules]. *)

val explain : t -> string
(** Multi-paragraph rationale with examples and the suppression recipe,
    shown by [histolint --explain RULE]. *)

val reference_prefix : string
(** ["test/reference/"]: the test-only reference library (refkit).  The
    library rules cover it (its pool closures stay under the
    domain-safety check), but it is never a dead-export subject. *)

val scope_of_path : lib_prefixes:string list -> string -> scope
(** Classify a (normalized, repo-relative) source path.  Paths under
    {!reference_prefix} or any of [lib_prefixes] are classified [Lib]
    even though they live elsewhere — the linter's own test fixtures
    use [lib_prefixes]. *)

val applies : t -> scope -> bool

val is_production : lib_prefixes:string list -> string -> bool
(** Does a unit at this source path ship (or gate what ships)?  [lib/],
    [bin/], [bench/], [perf/], [examples/], {!reference_prefix}, and any
    of [lib_prefixes]. *)

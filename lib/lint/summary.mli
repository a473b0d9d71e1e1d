(** Per-function summaries over the typedtree, plus the cross-module
    table the interprocedural passes query, plus each unit's references
    and interface values for the dead-export pass.

    For every top-level [let] in a compilation unit the summary
    records: the allocating constructs in its body, the calls it makes
    (with a map of which caller parameters are forwarded to which
    callee argument positions), which of its own parameters it
    mutates, and which module-level mutable locations it reads
    ([!]-deref) or writes.  Nested closures' effects are attributed to
    the enclosing function — a closure built and run inside a hot
    function allocates and mutates on that function's behalf.
    Summaries are computed in memory on every run. *)

(* -- shared helpers (also used by the engine and the passes) -- *)

val normalize_source : string -> string
(** Strip [./] and a leading [_build/<context>/] so scope
    classification sees repo-relative paths. *)

val canonical : string -> string
(** Canonical dotted spelling of a resolved path: dune's flat mangling
    ["Parkit__Pool"] becomes ["Parkit.Pool"]; a leading ["Stdlib."] is
    dropped. *)

val canonical_of_path : Path.t -> string

val payload_strings : Parsetree.payload -> string list
(** The string literals in an attribute payload. *)

val reason_attr :
  string -> Parsetree.attributes -> string option option
(** [Some (Some r)] when the named attribute is present with a
    nonempty reason string, [Some None] when present without one,
    [None] when absent. *)

val mutator_position : string -> int option
(** For a canonical callee name: the position (among [Nolabel] args)
    of the argument whose referent the call mutates, if the callee is
    a known mutator.  RNG draws count — racing draws from a shared rng
    destroy the pre-split stream discipline. *)

val is_deref : string -> bool
val is_indexed_store : string -> bool
val is_known_allocator : string -> bool
val is_raise : string -> bool

val root_of : Typedtree.expression -> Path.t option
(** The base location of an access path: [root_of (a.(i))] and
    [root_of r.contents] are [a] and [r]. *)

val nolabel_args :
  (Asttypes.arg_label * Typedtree.expression option) list ->
  Typedtree.expression list

val head_ident : Typedtree.expression -> Path.t option
val is_arrow : Types.type_expr -> bool

val mentions_ident : Ident.t list -> Typedtree.expression -> bool
(** Does the expression reference any of the idents?  Drives the
    disjoint-slot exemption. *)

val peel_function :
  Typedtree.expression ->
  (Ident.t * int) list * Ident.t list * Typedtree.expression list
(** Peel the curried [Texp_function] chain of a binding: the
    parameter-ident to [Nolabel]-index map, every binder the chain
    introduces, and the body expressions to walk (several for a
    multi-case [function], guards included). *)

(* -- the data model -- *)

type sloc = { s_file : string; s_line : int; s_col : int; s_cnum : int }

type alloc_kind =
  | A_closure
  | A_tuple
  | A_record
  | A_variant of string
  | A_array_literal
  | A_lazy
  | A_partial
  | A_known of string

val alloc_kind_desc : alloc_kind -> string

type alloc_site = {
  a_kind : alloc_kind;
  a_loc : sloc;
  a_cold : string option;
}

type call_site = {
  c_callee : string;
  c_loc : sloc;
  c_cold : string option;
  c_param_args : (int * int) list;
}

type access_kind = Read | Write

type global_access = {
  g_path : string;
  g_kind : access_kind;
  g_loc : sloc;
  g_desc : string;
}

type func_summary = {
  f_name : string;
  f_loc : sloc;
  f_hot : bool;
  f_allocs : alloc_site list;
  f_calls : call_site list;
  f_mutates : int list;
  f_globals : global_access list;
}

type marker = {
  mk_loc : sloc;
  mk_reason : string option;
  mutable mk_hits : int;
}

type export = {
  e_name : string;  (** canonical, module-qualified *)
  e_loc : sloc;  (** the [val] in the .mli *)
  e_keep : string option option;
      (** [[@@histolint.keep "reason"]], read as {!reason_attr} *)
}

type module_summary = {
  m_name : string;
  m_source : string;
  m_funcs : func_summary list;
  m_markers : marker list;
  m_refs : string list;
      (** every qualified value path the unit mentions, canonical, with
          local module aliases resolved; [open]ed names arrive fully
          qualified from the typer *)
  m_whole : string list;
      (** modules the unit uses whole: functor arguments, packed
          first-class modules, signature coercions, [include] *)
  m_exports : export list;  (** the [val]s of the unit's interface *)
}

val of_structure :
  modname:string ->
  source:string ->
  ?intf:Typedtree.signature ->
  Typedtree.structure ->
  module_summary
(** [intf] is the unit's typed interface (its [.cmti]); without one the
    unit exports nothing the dead-export rule looks at. *)

(* -- cross-module table -- *)

type table

val build_table : module_summary list -> table

val allocates : table -> string -> string option
(** Transitive: a witness chain if calling [name] can allocate outside
    audited regions; [None] if provably clean or unknown. *)

val reaches_globals : table -> string -> global_access list
(** Transitive module-global reads/writes reachable by calling
    [name]. *)

val mutates_params : table -> string -> int list
(** Transitive: the [Nolabel] parameter indices of [name] that end up
    mutated. *)

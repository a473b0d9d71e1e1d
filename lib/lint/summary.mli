(** histolint's one typedtree walk: each compilation unit is traversed
    once, and every check reads the records that walk leaves.

    For every module-level [let] in a compilation unit (plain [struct]
    submodules included) the summary records the allocating constructs
    in its body, the calls it makes (with the root of every argument),
    and every mutation and [!]-style read, each with its root: the
    function's own parameter, a local, a capture from an enclosing
    function, or module-level state.  [let]-bound local functions and
    the closures handed to a pool are summarized the same way, as
    frames of their own whose records also count for the enclosing
    function: a closure built and run inside a hot function allocates
    and mutates on that function's behalf.  Each pool call is recorded
    with its tasks, each [alloc_ok] region as a marker.  Error paths
    ([raise], [invalid_arg], [assert], ...) record no effects.

    The same walk records, everywhere in the unit, error paths
    included: every identifier use, every [[@histolint.allow]] range
    (floating ones included), every module-level [Lazy.t] binding, and
    the modules the unit uses whole.  Names are resolved through module
    aliases ([module H = Hashtbl], [let module R = Random in ...]) by
    one resolver, so an alias hides no call from any check.

    The hot-path pass ({!Alloc}), the domain-safety pass ({!Race}), the
    engine's per-identifier rules and the dead-export pass are checks
    over these records; none walks the typedtree.  Summaries are
    computed in memory on every run. *)

(* -- shared helpers (also used by the engine and the passes) -- *)

val normalize_source : string -> string
(** Strip [./] and a leading [_build/<context>/] so scope
    classification sees repo-relative paths. *)

val is_known_allocator : string -> bool

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

(** How a function sees the root of an access path ([root (a.(i))] and
    [root r.contents] are those of [a] and [r]) or of an argument. *)
type root =
  | R_param of int  (** its own [Nolabel] parameter, by index *)
  | R_local  (** bound inside it *)
  | R_captured of Ident.t  (** bound in an enclosing function *)
  | R_global of string  (** module-level: canonical, submodule-qualified *)
  | R_opaque  (** no identifiable root (a fresh value) *)

type effect_op =
  | Mutate of string
      (** a call to a known mutator, canonical name; RNG draws count —
          racing draws from a shared rng destroy the pre-split stream
          discipline *)
  | Write_field of string  (** a mutable field write, by label *)
  | Deref of string  (** a [!]-style read of a mutable cell *)

type access = {
  x_op : effect_op;
  x_root : root;
  x_loc : sloc;
  x_slot : Ident.t list;
      (** the disjoint-slot flag of an indexed store ([arr.(i) <- v]):
          the names its index mentions.  The store is slot-private to a
          task when one of them is the task's parameter. *)
}

type arg = {
  ar_root : root;
  ar_exact : bool;  (** the argument is a bare name, its own root *)
  ar_loc : sloc;
}

type call_site = {
  c_callee : string;
      (** canonical; for a local function, its ident's unique name *)
  c_local : bool;
      (** the callee is bound in an enclosing function: look it up in
          [m_locals] *)
  c_loc : sloc;
  c_cold : string option;
  c_args : arg list;  (** the [Nolabel] arguments, in order *)
}

type func_summary = {
  f_name : string;
  f_loc : sloc;
  f_hot : bool;
  f_params : Ident.t list;  (** the [Nolabel] parameters *)
  f_allocs : alloc_site list;
  f_calls : call_site list;  (** a module-level function's are never local *)
  f_access : access list;
}

(** A function argument of a pool call: a closure literal or a local
    function passed by name, summarized as a frame, or a module-level
    function passed by name (with the argument's location). *)
type task = T_frame of func_summary | T_named of string * sloc

type pool_site = {
  p_loc : sloc;  (** the [Parkit.Pool.map/init] or [Domain.spawn] application *)
  p_disjoint : string option option;
      (** its [\@histolint.disjoint "reason"]: [Some (Some r)], or
          [Some None] when the reason is missing *)
  p_tasks : task list;
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
      (** [[@@histolint.keep "reason"]], read as [p_disjoint] is *)
}

(** The class of a type, for the polymorphic-comparison rules. *)
type arg_class =
  | At_float of string  (** float, or a float container, by name *)
  | At_structural of string  (** non-immediate: tuples, records, ... *)
  | At_benign  (** int/bool/char/unit, strings, boxed ints *)
  | At_unknown  (** not a function, or still polymorphic at the use *)

type use = {
  u_name : string;
      (** canonical, through module aliases; [open]ed names arrive fully
          qualified from the typer *)
  u_local : bool;  (** a name the unit binds itself, not a reference *)
  u_loc : sloc;
  u_arg : arg_class;  (** the class of its first argument's type *)
}

type allow = {
  al_rules : string list;  (** the rule ids it names *)
  al_loc : sloc;  (** the attribute *)
  al_from : int;
  al_to : int;
      (** the char offsets of the node it covers; [max_int] for a
          floating [[@@@histolint.allow]], which covers the rest of the
          file *)
}

type module_summary = {
  m_name : string;
  m_source : string;
  m_funcs : func_summary list;
  m_markers : marker list;
  m_pools : pool_site list;  (** every pool call of the unit, in order *)
  m_locals : (string, func_summary) Hashtbl.t;
      (** the unit's [let]-bound local functions, by ident unique name *)
  m_uses : use list;  (** every identifier use, in order *)
  m_allows : allow list;
  m_lazies : (string * sloc) list;
      (** module-level bindings of a [Lazy.t] value, in any structure of
          the unit: name and binding *)
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

val reaches_globals : table -> string -> access list
(** Transitive: the accesses to module-level state ([R_global] roots)
    reachable by calling [name]. *)

val mutates_params : table -> string -> int list
(** Transitive: the [Nolabel] parameter indices of [name] that end up
    mutated, directly or passed as is to a callee that mutates them. *)

(* histolint's one typedtree walk.  Per function: what it allocates,
   whom it calls (and the root of every argument it passes), what it
   mutates or dereferences (and whether each root is its own parameter,
   a local, a capture or module-level state), and which pool calls it
   makes.  Per unit, in the same walk: every identifier use, allow
   range, module-level lazy and whole-module use, with names resolved
   through module aliases by one resolver.  The race pass (race.ml), the
   hot-path allocation pass (alloc.ml) and every rule of the engine read
   these records; the effect records are what makes histolint
   interprocedural: a helper that leaks a captured ref, or allocates,
   two calls away from the flagged site is still seen.

   Summaries are computed in memory on every run. *)

(* --- shared path helpers ------------------------------------------------ *)

let normalize_source path =
  let path =
    if String.length path >= 2 && String.equal (String.sub path 0 2) "./" then
      String.sub path 2 (String.length path - 2)
    else path
  in
  let strip_build p =
    let parts = String.split_on_char '/' p in
    match parts with
    | "_build" :: _context :: rest -> String.concat "/" rest
    | _ -> p
  in
  strip_build path

(* Canonical dotted spelling of a resolved path: dune's flat module
   mangling ("Parkit__Pool") becomes the dotted form ("Parkit.Pool"),
   and a leading "Stdlib." is dropped, so the mutator/allocator tables
   read naturally and cross-library references meet in the middle. *)
let canonical s =
  let split_mangled comp =
    (* split "Parkit__Pool" at "__"; leave names like "add__" alone by
       requiring a nonempty tail that starts with a letter *)
    let n = String.length comp in
    let rec go start i acc =
      if i + 1 >= n then List.rev (String.sub comp start (n - start) :: acc)
      else if
        Char.equal comp.[i] '_'
        && Char.equal comp.[i + 1] '_'
        && i + 2 < n
        && (match comp.[i + 2] with
           | 'a' .. 'z' | 'A' .. 'Z' -> true
           | _ -> false)
        && i > start
      then go (i + 2) (i + 2) (String.sub comp start (i - start) :: acc)
      else go start (i + 1) acc
    in
    go 0 0 []
  in
  let rec capitalize_head = function
    | [] -> []
    | [ last ] -> [ last ]
    | m :: rest -> String.capitalize_ascii m :: capitalize_head rest
  in
  let parts =
    String.split_on_char '.' s |> List.concat_map split_mangled |> capitalize_head
  in
  let parts =
    match parts with "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts
  in
  String.concat "." parts

let payload_strings (payload : Parsetree.payload) =
  let rec strings_of (e : Parsetree.expression) =
    match e.pexp_desc with
    | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> [ s ]
    | Parsetree.Pexp_tuple es -> List.concat_map strings_of es
    | _ -> []
  in
  match payload with
  | Parsetree.PStr items ->
      List.concat_map
        (fun (it : Parsetree.structure_item) ->
          match it.pstr_desc with
          | Parsetree.Pstr_eval (e, _) -> strings_of e
          | _ -> [])
        items
  | _ -> []

(* --- effect tables ------------------------------------------------------ *)

(* Canonical name -> 0-based position (among Nolabel args) of the
   argument whose referent is mutated.  Atomic.* is deliberately
   absent: atomics are the sanctioned cross-domain primitive. *)
let mutators =
  [
    (":=", 0);
    ("incr", 0);
    ("decr", 0);
    ("Array.set", 0);
    ("Array.unsafe_set", 0);
    ("Array.fill", 0);
    ("Array.blit", 2);
    ("Array.sort", 1);
    ("Array.stable_sort", 1);
    ("Array.fast_sort", 1);
    ("Float.Array.set", 0);
    ("Float.Array.unsafe_set", 0);
    ("Bytes.set", 0);
    ("Bytes.unsafe_set", 0);
    ("Bytes.fill", 0);
    ("Bytes.blit", 2);
    ("Bytes.blit_string", 2);
    ("Bytes.unsafe_blit", 2);
    ("Bytes.set_int64_le", 0);
    ("Bytes.set_int64_be", 0);
    ("Bytes.unsafe_set_int64_le", 0);
    ("Buffer.add_char", 0);
    ("Buffer.add_string", 0);
    ("Buffer.add_bytes", 0);
    ("Buffer.add_substring", 0);
    ("Buffer.add_subbytes", 0);
    ("Buffer.add_buffer", 0);
    ("Buffer.clear", 0);
    ("Buffer.reset", 0);
    ("Buffer.truncate", 0);
    ("Hashtbl.add", 0);
    ("Hashtbl.replace", 0);
    ("Hashtbl.remove", 0);
    ("Hashtbl.clear", 0);
    ("Hashtbl.reset", 0);
    ("Hashtbl.filter_map_inplace", 1);
    ("Queue.add", 1);
    ("Queue.push", 1);
    ("Queue.pop", 0);
    ("Queue.take", 0);
    ("Queue.clear", 0);
    ("Queue.transfer", 0);
    ("Stack.push", 1);
    ("Stack.pop", 0);
    ("Stack.clear", 0);
    (* drawing from an RNG advances its state: racing draws from a
       shared rng destroy the pre-split stream discipline *)
    ("Randkit.Rng.int", 0);
    ("Randkit.Rng.float", 0);
    ("Randkit.Rng.bool", 0);
    ("Randkit.Rng.bits64", 0);
    ("Randkit.Rng.bits53", 0);
    ("Randkit.Rng.split", 0);
    ("Randkit.Xoshiro.next", 0);
    ("Randkit.Xoshiro.next_top53", 0);
    ("Randkit.Xoshiro.next_below", 0);
  ]

let mutator_position name =
  List.find_map
    (fun (m, pos) -> if String.equal m name then Some pos else None)
    mutators

(* Reading a mutable cell: `!r` (and aliases).  Direct reads of shared
   refs from pool closures are flagged; plain Array/field reads are
   not (immutable-usage shared tables are the backbone of parkit). *)
let deref_ops = [ "!"; "Atomic.get" ]
let is_deref name = List.exists (String.equal name) deref_ops

(* Accessors that [root_of] looks through: root (a.(i)) = root a. *)
let getters =
  [ "Array.get"; "Array.unsafe_get"; "Bytes.get"; "Bytes.unsafe_get"; "!" ]

let is_getter name = List.exists (String.equal name) getters

(* Indexed stores whose index argument can prove slot-disjointness. *)
let indexed_stores =
  [ "Array.set"; "Array.unsafe_set"; "Bytes.set"; "Bytes.unsafe_set" ]

let is_indexed_store name = List.exists (String.equal name) indexed_stores

(* Calls whose whole subtree is an error path: allowed to allocate,
   and not a shared-state hazard (they tear the task down). *)
let raise_family =
  [
    "raise";
    "raise_notrace";
    "invalid_arg";
    "failwith";
    "Printexc.raise_with_backtrace";
  ]

let is_raise name = List.exists (String.equal name) raise_family

(* Stdlib (and repo-boundary) functions known to allocate.  Curated,
   not exhaustive: unknown callees are assumed clean, so the table errs
   on covering everything hot paths could plausibly reach.  `ref` is
   deliberately absent (classic ocamlopt unboxes non-escaping refs and
   Scan.scan_sub leans on this); Int64 arithmetic likewise (the xoshiro
   draws are written to stay unboxed). *)
let known_allocators =
  [
    "Array.make";
    "Array.create_float";
    "Array.init";
    "Array.sub";
    "Array.copy";
    "Array.append";
    "Array.concat";
    "Array.map";
    "Array.mapi";
    "Array.to_list";
    "Array.of_list";
    "Array.make_matrix";
    "Float.Array.make";
    "Float.Array.create";
    "String.sub";
    "String.concat";
    "String.make";
    "String.init";
    "String.map";
    "String.split_on_char";
    "String.uppercase_ascii";
    "String.lowercase_ascii";
    "String.capitalize_ascii";
    "String.trim";
    "String.cat";
    "^";
    "Bytes.create";
    "Bytes.make";
    "Bytes.sub";
    "Bytes.copy";
    "Bytes.of_string";
    "Bytes.to_string";
    "Bytes.sub_string";
    "Bytes.extend";
    "Buffer.create";
    "Buffer.contents";
    "Buffer.to_bytes";
    "Buffer.sub";
    "List.map";
    "List.mapi";
    "List.rev_map";
    "List.rev";
    "List.append";
    "List.concat";
    "List.concat_map";
    "List.filter";
    "List.filter_map";
    "List.init";
    "List.sort";
    "List.stable_sort";
    "List.sort_uniq";
    "List.of_seq";
    "List.to_seq";
    "@";
    "Printf.sprintf";
    "Printf.ksprintf";
    "Format.asprintf";
    "Format.sprintf";
    "string_of_int";
    "string_of_float";
    "string_of_bool";
    "float_of_string";
    "int_of_string";
    "Int.to_string";
    "Int64.to_string";
    "Float.to_string";
    "Hashtbl.create";
    "Hashtbl.copy";
    "Queue.create";
    "Stack.create";
    "Seq.map";
    "Seq.filter";
    "Option.map";
    "Option.bind";
    "Result.map";
    "Lazy.from_fun";
  ]

let is_known_allocator name = List.exists (String.equal name) known_allocators

(* --- summary data model ------------------------------------------------- *)

type sloc = { s_file : string; s_line : int; s_col : int; s_cnum : int }

let sloc_of ~fallback (loc : Location.t) =
  let file =
    if String.equal loc.loc_start.pos_fname "" then fallback
    else normalize_source loc.loc_start.pos_fname
  in
  {
    s_file = file;
    s_line = loc.loc_start.pos_lnum;
    s_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    s_cnum = loc.loc_start.pos_cnum;
  }

type alloc_kind =
  | A_closure
  | A_tuple
  | A_record
  | A_variant of string
  | A_array_literal
  | A_lazy
  | A_partial
  | A_known of string  (** call to a known allocator *)

let alloc_kind_desc = function
  | A_closure -> "closure creation"
  | A_tuple -> "tuple construction"
  | A_record -> "record construction"
  | A_variant c -> Printf.sprintf "`%s` constructor application" c
  | A_array_literal -> "array literal"
  | A_lazy -> "lazy block"
  | A_partial -> "partial application (builds a closure)"
  | A_known f -> Printf.sprintf "call to allocator `%s`" f

type alloc_site = {
  a_kind : alloc_kind;
  a_loc : sloc;
  a_cold : string option;  (** Some reason: under [\@histolint.alloc_ok] *)
}

type root =
  | R_param of int
  | R_local
  | R_captured of Ident.t
  | R_global of string
  | R_opaque

type effect_op = Mutate of string | Write_field of string | Deref of string

type access = {
  x_op : effect_op;
  x_root : root;
  x_loc : sloc;
  x_slot : Ident.t list;
}

type arg = { ar_root : root; ar_exact : bool; ar_loc : sloc }

type call_site = {
  c_callee : string;
  c_local : bool;
  c_loc : sloc;
  c_cold : string option;
  c_args : arg list;
}

type func_summary = {
  f_name : string;  (** canonical, module-qualified *)
  f_loc : sloc;
  f_hot : bool;
  f_params : Ident.t list;
  f_allocs : alloc_site list;
  f_calls : call_site list;
  f_access : access list;
}

type task = T_frame of func_summary | T_named of string * sloc

type pool_site = {
  p_loc : sloc;
  p_disjoint : string option option;
  p_tasks : task list;
}

type marker = {
  mk_loc : sloc;
  mk_reason : string option;  (** None: attribute missing its reason *)
  mutable mk_hits : int;  (** sites the marker covered *)
}

type export = {
  e_name : string;  (** canonical, module-qualified *)
  e_loc : sloc;  (** the [val] in the .mli *)
  e_keep : string option option;  (** as {!reason_attr} *)
}

type arg_class =
  | At_float of string
  | At_structural of string
  | At_benign
  | At_unknown

type use = { u_name : string; u_local : bool; u_loc : sloc; u_arg : arg_class }

type allow = {
  al_rules : string list;
  al_loc : sloc;  (** the attribute *)
  al_from : int;  (** char offsets covered; [max_int] ends a floating one *)
  al_to : int;
}

type module_summary = {
  m_name : string;  (** canonical module name *)
  m_source : string;  (** normalized source path *)
  m_funcs : func_summary list;
  m_markers : marker list;
  m_pools : pool_site list;
  m_locals : (string, func_summary) Hashtbl.t;
  m_uses : use list;
  m_allows : allow list;
  m_lazies : (string * sloc) list;
  m_whole : string list;  (** canonical module paths it uses whole *)
  m_exports : export list;  (** the [val]s of its .mli *)
}

(* --- attribute helpers -------------------------------------------------- *)

let attr_payload name (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt name then Some a.attr_payload else None)
    attrs

let has_attr name attrs =
  match attr_payload name attrs with Some _ -> true | None -> false

(* [Some (Some reason)] when present with a nonempty reason,
   [Some None] when present but the reason is missing/empty. *)
let reason_attr name attrs =
  match attr_payload name attrs with
  | None -> None
  | Some payload -> (
      match payload_strings payload with
      | s :: _ when String.length (String.trim s) > 0 -> Some (Some s)
      | _ -> Some None)

(* --- type classification (for the poly-compare rules) --------------------- *)

let rec classify_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      if Path.same p Predef.path_float then At_float "float"
      else if Path.same p Predef.path_floatarray then At_float "floatarray"
      else if Path.same p Predef.path_int || Path.same p Predef.path_bool
              || Path.same p Predef.path_char || Path.same p Predef.path_unit
              || Path.same p Predef.path_string
              || Path.same p Predef.path_bytes
              || Path.same p Predef.path_int32
              || Path.same p Predef.path_int64
              || Path.same p Predef.path_nativeint
      then At_benign
      else if Path.same p Predef.path_array || Path.same p Predef.path_list
              || Path.same p Predef.path_option
      then (
        let container = canonical (Path.name p) in
        match args with
        | [ elt ] -> (
            match classify_type elt with
            | At_float elt_name ->
                At_float (Printf.sprintf "%s %s" elt_name container)
            | _ -> At_structural container)
        | _ -> At_structural container)
      else At_structural (canonical (Path.name p))
  | Types.Ttuple _ -> At_structural "tuple"
  | Types.Tarrow _ -> At_structural "function"
  | _ -> At_unknown

let first_arg_class ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> classify_type a
  | _ -> At_unknown

(* --- expression shape helpers ------------------------------------------- *)

let nolabel_args args =
  List.filter_map
    (fun ((label : Asttypes.arg_label), arg) ->
      match (label, arg) with
      | Asttypes.Nolabel, Some (a : Typedtree.expression) -> Some a
      | _ -> None)
    args

let head_ident (f : Typedtree.expression) =
  match f.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | _ -> None

let is_arrow ty =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

(* The local names [e] mentions.  An indexed store keeps those of its
   index: `arr.(i) <- v` is slot-private to the task whose parameter
   [i] is. *)
let idents_in (e : Typedtree.expression) =
  let found = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) -> found := id :: !found
    | _ -> ());
    default.expr sub e
  in
  let it = { default with expr } in
  it.expr it e;
  !found

(* --- the walk ------------------------------------------------------------ *)

(* One function being walked: a top-level binding, a [let]-bound local
   function, or a closure handed to a pool.  Records are kept newest
   first. *)
type frame = {
  fr_depth : int;  (** how many frames enclose it *)
  fr_params : (Ident.t * int) list;  (** param ident -> nolabel index *)
  mutable fr_allocs : alloc_site list;
  mutable fr_calls : call_site list;
  mutable fr_access : access list;
}

let new_frame depth params =
  { fr_depth = depth; fr_params = params; fr_allocs = []; fr_calls = [];
    fr_access = [] }

(* The state of the one walk over a unit; the unit's records are kept
   newest first. *)
type walk_state = {
  ws_fallback : string;
  ws_bound : (string, int) Hashtbl.t;
      (** Ident stamps bound in the current module-level binding -> depth
          of the frame binding them *)
  ws_scope : (string, string) Hashtbl.t;
      (** module-level Ident stamps -> qualified names: a submodule's
          bare reference to an outer value resolves to the outer path *)
  ws_locals : (string, func_summary) Hashtbl.t;
      (** the unit's local functions, by Ident stamp *)
  ws_aliases : (string, Path.t) Hashtbl.t;
      (** module aliases ([module H = Hashtbl], [let module]), by Ident
          stamp, to their resolved target *)
  mutable ws_modname : string;  (** the enclosing (sub)module's path *)
  mutable ws_named : bool;
      (** only plain [struct]s enclose the item: its [let]s are named
          functions of the table *)
  mutable ws_toplevel : bool;  (** outside every module-level binding *)
  mutable ws_quiet : bool;
      (** effects go unrecorded: outside a binding, or inside an error
          path ([raise], [assert]), which may allocate and tears the task
          down *)
  mutable ws_chain : Typedtree.expression list;
      (** the parameter layers of the current module-level binding *)
  mutable ws_frame : frame;  (** the innermost frame *)
  mutable ws_cold : marker list;  (** innermost alloc_ok region first *)
  mutable ws_skip_head : Typedtree.expression option;
  mutable ws_funcs : func_summary list;
  mutable ws_markers : marker list;
  mutable ws_pools : pool_site list;
  mutable ws_uses : use list;
  mutable ws_allows : allow list;
  mutable ws_lazies : (string * sloc) list;
  mutable ws_whole : string list;
}

(* The one resolver: a path through a module alias becomes the path
   through its target. *)
let rec resolve st (p : Path.t) =
  match p with
  | Path.Pident id ->
      Option.value ~default:p
        (Hashtbl.find_opt st.ws_aliases (Ident.unique_name id))
  | Path.Pdot (q, s) -> Path.Pdot (resolve st q, s)
  | p -> p

let name_of st p = canonical (Path.name (resolve st p))

(* A name the unit binds itself, rather than a reference. *)
let is_own st p =
  match resolve st p with
  | Path.Pident id -> not (Ident.persistent id)
  | _ -> false

(* Record [id] as an alias when [me] names a module. *)
let rec alias st id (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Typedtree.Tmod_ident (p, _) ->
      Hashtbl.replace st.ws_aliases (Ident.unique_name id) (resolve st p);
      true
  | Typedtree.Tmod_constraint (me, _, Typedtree.Tmodtype_implicit, _) ->
      alias st id me
  | _ -> false

let rec root_of st (e : Typedtree.expression) : Path.t option =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_field (e, _, _) -> root_of st e
  | Typedtree.Texp_apply (f, (_, Some a0) :: _) -> (
      match f.exp_desc with
      | Typedtree.Texp_ident (p, _, _) when is_getter (name_of st p) ->
          root_of st a0
      | _ -> None)
  | _ -> None

(* The applications whose function arguments run as concurrent tasks. *)
let is_pool_apply st f =
  match head_ident f with
  | Some p ->
      List.mem (name_of st p)
        [ "Parkit.Pool.map"; "Parkit.Pool.init"; "Domain.spawn" ]
  | None -> false

let is_raise_subtree st (e : Typedtree.expression) =
  match e.exp_desc with
  | Typedtree.Texp_apply (f, _) -> (
      match head_ident f with
      | Some p -> is_raise (name_of st p)
      | None -> false)
  | Typedtree.Texp_assert _ -> true
  | _ -> false

let bind st id =
  Hashtbl.replace st.ws_bound (Ident.unique_name id) st.ws_frame.fr_depth

let qualify st id =
  match Hashtbl.find_opt st.ws_scope (Ident.unique_name id) with
  | Some q -> q
  | None -> st.ws_modname ^ "." ^ Ident.name id

(* How frame [fr] sees a name: its own parameter or local, a capture
   from an enclosing frame, or module-level. *)
let classify_ident st fr id =
  match Hashtbl.find_opt st.ws_bound (Ident.unique_name id) with
  | Some d when d >= fr.fr_depth -> (
      match
        List.find_map
          (fun (p, i) -> if Ident.same p id then Some i else None)
          fr.fr_params
      with
      | Some i -> R_param i
      | None -> R_local)
  | Some _ -> R_captured id
  | None -> R_global (qualify st id)

let classify_path st (p : Path.t) =
  match p with
  | Path.Pident id -> classify_ident st st.ws_frame id
  | p -> R_global (name_of st p)

let classify_root st (e : Typedtree.expression) =
  match root_of st e with None -> R_opaque | Some p -> classify_path st p

let peek_cold st =
  match st.ws_cold with
  | [] -> None
  | mk :: _ -> Some (Option.value mk.mk_reason ~default:"(unaudited)")

(* As [peek_cold], counting the site against the innermost marker. *)
let cold_reason st =
  (match st.ws_cold with mk :: _ -> mk.mk_hits <- mk.mk_hits + 1 | [] -> ());
  peek_cold st

let sloc st loc = sloc_of ~fallback:st.ws_fallback loc

let add_alloc st kind loc =
  let fr = st.ws_frame in
  fr.fr_allocs <-
    { a_kind = kind; a_loc = sloc st loc; a_cold = cold_reason st }
    :: fr.fr_allocs

let add_access st ?(slot = []) op loc target =
  let fr = st.ws_frame in
  fr.fr_access <-
    { x_op = op; x_root = classify_root st target; x_loc = sloc st loc;
      x_slot = slot }
    :: fr.fr_access

let add_call st ~local ~cold ~args callee loc =
  let fr = st.ws_frame in
  fr.fr_calls <-
    { c_callee = callee; c_local = local; c_loc = sloc st loc; c_cold = cold;
      c_args = args }
    :: fr.fr_calls

let arg_of st (a : Typedtree.expression) =
  {
    ar_root = classify_root st a;
    ar_exact =
      (match a.exp_desc with Typedtree.Texp_ident _ -> true | _ -> false);
    ar_loc = sloc st a.exp_loc;
  }

(* The [[@histolint.allow "rule" ...]]s among [attrs], covering [range]
   (to the end of the file when [to_end]). *)
let add_allows st ?(to_end = false) ~(range : Location.t) attrs =
  List.iter
    (fun (attr : Parsetree.attribute) ->
      match payload_strings attr.attr_payload with
      | _ :: _ as rules when String.equal attr.attr_name.txt "histolint.allow"
        ->
          st.ws_allows <-
            { al_rules = rules; al_loc = sloc st attr.attr_loc;
              al_from = range.loc_start.pos_cnum;
              al_to = (if to_end then max_int else range.loc_end.pos_cnum) }
            :: st.ws_allows
      | _ -> ())
    attrs

let add_use st (p : Path.t) (lid : Longident.t Location.loc) ty =
  st.ws_uses <-
    { u_name = name_of st p; u_local = is_own st p; u_loc = sloc st lid.loc;
      u_arg = first_arg_class ty }
    :: st.ws_uses

(* A module-level binding of a [Lazy.t] value, judged by its type, so
   [lazy e] and [Lazy.from_fun f] are both caught. *)
let add_lazy st (vb : Typedtree.value_binding) =
  match Types.get_desc vb.vb_expr.exp_type with
  | Types.Tconstr (path, _, _)
    when List.exists (String.equal (Path.name path))
           [ "lazy_t"; "Lazy.t"; "Stdlib.Lazy.t"; "CamlinternalLazy.t" ] ->
      let name =
        match Typedtree.pat_bound_idents vb.vb_pat with
        | id :: _ -> Ident.name id
        | [] -> "_"
      in
      st.ws_lazies <- (name, sloc st vb.vb_loc) :: st.ws_lazies
  | _ -> ()

(* A finished frame's records join its parent's, seen from the parent:
   the child's parameters and locals are the parent's locals, and a
   capture may be one of the parent's own names.  Calls to a function
   the parent binds are dropped (the parent walks its body itself). *)
let merge st parent fr =
  let lift = function
    | R_param _ | R_local -> R_local
    | R_captured id -> classify_ident st parent id
    | r -> r
  in
  let parent_binds c =
    c.c_local
    &&
    match Hashtbl.find_opt st.ws_bound c.c_callee with
    | Some d -> d >= parent.fr_depth
    | None -> false
  in
  parent.fr_allocs <- fr.fr_allocs @ parent.fr_allocs;
  parent.fr_access <-
    List.map (fun x -> { x with x_root = lift x.x_root }) fr.fr_access
    @ parent.fr_access;
  parent.fr_calls <-
    List.filter_map
      (fun c ->
        if parent_binds c then None
        else
          Some
            { c with
              c_args =
                List.map (fun a -> { a with ar_root = lift a.ar_root }) c.c_args
            })
      fr.fr_calls
    @ parent.fr_calls

let summary_of ~name ~loc ~hot fr =
  {
    f_name = name;
    f_loc = loc;
    f_hot = hot;
    f_params = List.map fst fr.fr_params;
    f_allocs = List.rev fr.fr_allocs;
    f_calls = List.rev fr.fr_calls;
    f_access = List.rev fr.fr_access;
  }

(* Peel the curried [Texp_function] chain of a binding: returns the
   parameter->nolabel-index map, the set of all binder idents
   introduced by the chain, and the chain's [fun] nodes (parameter
   layers, not closures the body builds). *)
let peel_function (e : Typedtree.expression) =
  let rec go nolabel_idx params binders chain (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_function { arg_label; param; cases; _ } -> (
        let case_idents =
          List.concat_map
            (fun (c : Typedtree.value Typedtree.case) ->
              Typedtree.pat_bound_idents c.c_lhs)
            cases
        in
        let level_idents = param :: case_idents in
        let is_nolabel =
          match arg_label with Asttypes.Nolabel -> true | _ -> false
        in
        let params =
          if is_nolabel then
            params @ List.map (fun id -> (id, nolabel_idx)) level_idents
          else params
        in
        let nolabel_idx = if is_nolabel then nolabel_idx + 1 else nolabel_idx in
        let binders = binders @ level_idents in
        match cases with
        | [ { c_lhs = _; c_guard = None; c_rhs } ] ->
            go nolabel_idx params binders (e :: chain) c_rhs
        | _ -> (params, binders, e :: chain))
    | Typedtree.Texp_let
        ( Asttypes.Nonrecursive,
          vbs,
          ({ exp_desc = Typedtree.Texp_function _; _ } as body) ) ->
        (* An optional argument's default desugars to
           [let p = match ?p with ... in fun next -> ...] between
           parameter layers: the [let] is part of the parameter list,
           not a closure the body builds.  The bound expressions are
           still walked (a staged [let tbl = Hashtbl.create ... in
           fun x -> ...] keeps its allocation visible). *)
        let binders =
          binders
          @ List.concat_map
              (fun (vb : Typedtree.value_binding) ->
                Typedtree.pat_bound_idents vb.vb_pat)
              vbs
        in
        go nolabel_idx params binders chain body
    | _ -> (params, binders, chain)
  in
  go 0 [] [] [] e

let walk_iterator st =
  let default = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun sub p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> bind st id
    | Typedtree.Tpat_alias (_, id, _) -> bind st id
    | _ -> ());
    default.pat sub p
  in
  (* Walk function expression [e] as a frame of its own, then fold its
     records into the enclosing frame. *)
  let in_frame sub ~name (e : Typedtree.expression) =
    let params, binders, _ = peel_function e in
    let parent = st.ws_frame in
    let fr = new_frame (parent.fr_depth + 1) params in
    st.ws_frame <- fr;
    List.iter (bind st) binders;
    sub.Tast_iterator.expr sub e;
    st.ws_frame <- parent;
    merge st parent fr;
    summary_of ~name ~loc:(sloc st e.exp_loc) ~hot:false fr
  in
  (* A pool application: every [fun] argument is a task frame; a
     function passed by name is a local function's frame or a
     module-level function. *)
  let walk_pool sub (e : Typedtree.expression) f args =
    sub.Tast_iterator.expr sub f;
    let task (label, a) =
      match (label, a) with
      | _, None -> None
      | Asttypes.Nolabel, Some ({ Typedtree.exp_desc = Texp_function _; _ } as a)
        ->
          Some (T_frame (in_frame sub ~name:"fun" a))
      | label, Some (a : Typedtree.expression) -> (
          sub.expr sub a;
          match (label, a.exp_desc) with
          | Asttypes.Nolabel, Typedtree.Texp_ident (p, _, _) -> (
              match (classify_path st p, p) with
              | R_global name, _ when is_arrow a.exp_type ->
                  Some (T_named (name, sloc st a.exp_loc))
              | (R_param _ | R_local | R_captured _), Path.Pident id ->
                  Hashtbl.find_opt st.ws_locals (Ident.unique_name id)
                  |> Option.map (fun f -> T_frame f)
              | _ -> None)
          | _ -> None)
    in
    let tasks = List.filter_map task args in
    st.ws_pools <-
      { p_loc = sloc st e.exp_loc;
        p_disjoint = reason_attr "histolint.disjoint" e.exp_attributes;
        p_tasks = tasks }
      :: st.ws_pools
  in
  let handle_apply (e : Typedtree.expression) f args =
    match head_ident f with
    | None -> ()
    | Some p -> (
        st.ws_skip_head <- Some f;
        let name = name_of st p in
        let nargs = nolabel_args args in
        (* mutation effects *)
        (match mutator_position name with
        | Some pos -> (
            match List.nth_opt nargs pos with
            | Some target ->
                let slot =
                  match (is_indexed_store name, nargs) with
                  | true, _ :: idx :: _ -> idents_in idx
                  | _ -> []
                in
                add_access st ~slot (Mutate name) e.exp_loc target
            | None -> ())
        | None -> ());
        (if is_deref name then
           match nargs with
           | target :: _ -> add_access st (Deref name) e.exp_loc target
           | [] -> ());
        (* the call itself *)
        match classify_path st p with
        | R_global qualified ->
            add_call st ~local:false ~cold:(cold_reason st)
              ~args:(List.map (arg_of st) nargs) qualified e.exp_loc;
            (* partial application builds a closure *)
            if is_arrow e.exp_type && not (is_raise name) then
              add_alloc st A_partial e.exp_loc
            else if is_known_allocator name then
              add_alloc st (A_known name) e.exp_loc
        | callee ->
            (match callee with
            | R_captured id ->
                add_call st ~local:true ~cold:(peek_cold st)
                  ~args:(List.map (arg_of st) nargs) (Ident.unique_name id)
                  e.exp_loc
            | _ -> ());
            (* partial application of a local function *)
            if is_arrow e.exp_type then add_alloc st A_partial e.exp_loc)
  in
  (* The effects of [e] itself, then its subexpressions. *)
  let effects sub (e : Typedtree.expression) =
    let pushed =
      match reason_attr "histolint.alloc_ok" e.exp_attributes with
      | None -> false
      | Some reason ->
          let mk =
            { mk_loc = sloc st e.exp_loc; mk_reason = reason; mk_hits = 0 }
          in
          st.ws_markers <- mk :: st.ws_markers;
          st.ws_cold <- mk :: st.ws_cold;
          true
    in
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
        let skip =
          match st.ws_skip_head with
          | Some h when h == e -> true
          | _ -> false
        in
        if skip then st.ws_skip_head <- None
        else if is_arrow e.exp_type then
          (* a function referenced in argument/value position: account
             for its effects as a zero-arg call (e.g. `List.iter bump
             xs` must see bump's effects) *)
          match classify_path st p with
          | R_global q ->
              if not (is_raise q || is_getter q) then
                add_call st ~local:false ~cold:(peek_cold st) ~args:[] q
                  e.exp_loc
          | R_captured id ->
              add_call st ~local:true ~cold:(peek_cold st) ~args:[]
                (Ident.unique_name id) e.exp_loc
          | R_param _ | R_local | R_opaque -> ())
    | Typedtree.Texp_apply (f, args) -> handle_apply e f args
    | Typedtree.Texp_let (Asttypes.Recursive, vbs, _) ->
        (* every name of a recursive group is in scope in each body *)
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter (bind st) (Typedtree.pat_bound_idents vb.vb_pat))
          vbs
    | Typedtree.Texp_function _ ->
        if not (List.memq e st.ws_chain) then add_alloc st A_closure e.exp_loc
    | Typedtree.Texp_tuple _ -> add_alloc st A_tuple e.exp_loc
    | Typedtree.Texp_record _ -> add_alloc st A_record e.exp_loc
    | Typedtree.Texp_construct (lid, _, args) ->
        if not (List.is_empty args) then
          add_alloc st
            (A_variant (String.concat "." (Longident.flatten lid.txt)))
            e.exp_loc
    | Typedtree.Texp_variant (label, arg) ->
        if Option.is_some arg then
          add_alloc st (A_variant ("`" ^ label)) e.exp_loc
    | Typedtree.Texp_array elts ->
        if not (List.is_empty elts) then add_alloc st A_array_literal e.exp_loc
    | Typedtree.Texp_lazy _ -> add_alloc st A_lazy e.exp_loc
    | Typedtree.Texp_letop _ -> add_alloc st A_closure e.exp_loc
    | Typedtree.Texp_setfield (target, _, ld, _) ->
        add_access st (Write_field ld.lbl_name) e.exp_loc target
    | _ -> ());
    (match e.exp_desc with
    | Typedtree.Texp_apply (f, args) when is_pool_apply st f ->
        walk_pool sub e f args
    | _ -> default.expr sub e);
    if pushed then st.ws_cold <- List.tl st.ws_cold
  in
  (* Every expression records its allows and, as an identifier, its use;
     effects only inside a binding and outside error paths. *)
  let expr sub (e : Typedtree.expression) =
    add_allows st ~range:e.exp_loc e.exp_attributes;
    (match e.exp_desc with
    | Typedtree.Texp_ident (p, lid, _) -> add_use st p lid e.exp_type
    | _ -> ());
    match e.exp_desc with
    | Typedtree.Texp_letmodule (Some id, _, _, me, body) when alias st id me ->
        sub.Tast_iterator.expr sub body
    | _ when st.ws_quiet -> default.expr sub e
    | _ when is_raise_subtree st e ->
        st.ws_quiet <- true;
        default.expr sub e;
        st.ws_quiet <- false
    | _ -> effects sub e
  in
  (* A [let]-bound local function is a frame of its own, kept by stamp
     for the tasks that call it or are it. *)
  let value_binding sub (vb : Typedtree.value_binding) =
    add_allows st ~range:vb.vb_loc vb.vb_attributes;
    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Typedtree.Tpat_var (id, _), Typedtree.Texp_function _
      when not st.ws_quiet ->
        sub.Tast_iterator.pat sub vb.vb_pat;
        Hashtbl.replace st.ws_locals (Ident.unique_name id)
          (in_frame sub ~name:(Ident.name id) vb.vb_expr)
    | _ -> default.value_binding sub vb
  in
  (* One module-level binding (or evaluated expression): the frame at
     depth 0, its parameter layers peeled. *)
  let binding sub ?self (e : Typedtree.expression) =
    let params, binders, chain = peel_function e in
    Hashtbl.reset st.ws_bound;
    st.ws_frame <- new_frame 0 params;
    st.ws_chain <- chain;
    st.ws_toplevel <- false;
    st.ws_quiet <- false;
    Option.iter (bind st) self;
    List.iter (bind st) binders;
    sub.Tast_iterator.expr sub e;
    st.ws_toplevel <- true;
    st.ws_quiet <- true;
    st.ws_frame
  in
  (* Module-level [let]s of plain [struct]s are the table's functions,
     named by their full path ([Service.Batch.push_sub]); any other
     binding ([let () = ...], a functor body's) contributes its pool
     sites and markers only. *)
  let module_value sub (vb : Typedtree.value_binding) =
    add_allows st ~range:vb.vb_loc vb.vb_attributes;
    match vb.vb_pat.pat_desc with
    | Typedtree.Tpat_var (id, _) when st.ws_named ->
        let name = st.ws_modname ^ "." ^ Ident.name id in
        Hashtbl.replace st.ws_scope (Ident.unique_name id) name;
        let fr = binding sub ~self:id vb.vb_expr in
        st.ws_funcs <-
          summary_of ~name ~loc:(sloc st vb.vb_loc)
            ~hot:(has_attr "histolint.hot" vb.vb_attributes)
            fr
          :: st.ws_funcs
    | _ -> ignore (binding sub vb.vb_expr)
  in
  let structure_item sub (si : Typedtree.structure_item) =
    (match si.str_desc with
    | Typedtree.Tstr_value (_, vbs) -> List.iter (add_lazy st) vbs
    | Typedtree.Tstr_attribute attr ->
        (* Floating [@@@histolint.allow]: suppress to end of file. *)
        add_allows st ~to_end:true ~range:si.str_loc [ attr ]
    | _ -> ());
    match si.str_desc with
    | Typedtree.Tstr_value (_, vbs) when st.ws_toplevel ->
        List.iter (module_value sub) vbs
    | Typedtree.Tstr_eval (e, _) when st.ws_toplevel -> ignore (binding sub e)
    | Typedtree.Tstr_value _ | Typedtree.Tstr_eval _ | Typedtree.Tstr_module _
      ->
        default.structure_item sub si
    | _ ->
        let named = st.ws_named in
        st.ws_named <- false;
        default.structure_item sub si;
        st.ws_named <- named
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | Some id when alias st id mb.mb_expr -> ()
    | _ ->
        let modname = st.ws_modname and named = st.ws_named in
        (match (mb.mb_id, mb.mb_expr.mod_desc) with
        | Some id, Typedtree.Tmod_structure _ ->
            st.ws_modname <- modname ^ "." ^ Ident.name id
        | Some id, _ ->
            st.ws_modname <- modname ^ "." ^ Ident.name id;
            st.ws_named <- false
        | None, _ -> st.ws_named <- false);
        default.module_binding sub mb;
        st.ws_modname <- modname;
        st.ws_named <- named
  in
  (* A module used whole: a functor argument, a packed first-class
     module, a signature coercion, an [include]. *)
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) when not (is_own st p) ->
        st.ws_whole <- name_of st p :: st.ws_whole
    | _ -> ());
    default.module_expr sub me
  in
  (* [open] needs no record: the typer already resolves an opened name
     to its full path. *)
  let open_declaration sub (od : Typedtree.open_declaration) =
    match od.open_expr.mod_desc with
    | Typedtree.Tmod_ident _ -> ()
    | _ -> default.open_declaration sub od
  in
  { default with
    expr; pat; value_binding; structure_item; module_binding; module_expr;
    open_declaration }

(* --- exports (dead/unreferenced-export) --------------------------------- *)

(* The [val]s an interface exports, nested signatures included; module
   types and functors declare no values of their own. *)
let exports ~modname ~source (sg : Typedtree.signature) =
  let rec items prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (si : Typedtree.signature_item) ->
        match si.sig_desc with
        | Typedtree.Tsig_value vd ->
            [
              {
                e_name = prefix ^ "." ^ vd.val_name.txt;
                e_loc = sloc_of ~fallback:source vd.val_loc;
                e_keep = reason_attr "histolint.keep" vd.val_attributes;
              };
            ]
        | Typedtree.Tsig_module
            {
              md_name = { txt = Some m; _ };
              md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
              _;
            } ->
            items (prefix ^ "." ^ m) sg
        | _ -> [])
      sg.sig_items
  in
  items modname sg

let of_structure ~modname ~source ?intf (str : Typedtree.structure) =
  let modname = canonical modname in
  let st =
    {
      ws_fallback = source;
      ws_bound = Hashtbl.create 64;
      ws_scope = Hashtbl.create 64;
      ws_locals = Hashtbl.create 16;
      ws_aliases = Hashtbl.create 8;
      ws_modname = modname;
      ws_named = true;
      ws_toplevel = true;
      ws_quiet = true;
      ws_chain = [];
      ws_frame = new_frame 0 [];
      ws_cold = [];
      ws_skip_head = None;
      ws_funcs = [];
      ws_markers = [];
      ws_pools = [];
      ws_uses = [];
      ws_allows = [];
      ws_lazies = [];
      ws_whole = [];
    }
  in
  let it = walk_iterator st in
  it.structure it str;
  {
    m_name = modname;
    m_source = source;
    m_funcs = List.rev st.ws_funcs;
    m_markers = List.rev st.ws_markers;
    m_pools = List.rev st.ws_pools;
    m_locals = st.ws_locals;
    m_uses = List.rev st.ws_uses;
    m_allows = List.rev st.ws_allows;
    m_lazies = List.rev st.ws_lazies;
    m_whole = List.sort_uniq String.compare st.ws_whole;
    m_exports =
      (match intf with
      | None -> []
      | Some sg -> exports ~modname ~source sg);
  }

(* --- the summary table -------------------------------------------------- *)

type table = { by_name : (string, func_summary) Hashtbl.t }

let suffixes name =
  (* "A.B.f" -> ["A.B.f"; "B.f"] — never the bare "f": a one-component
     key would make every local `helper` in one module shadow another's *)
  let parts = String.split_on_char '.' name in
  let rec go parts acc =
    match parts with
    | [] | [ _ ] -> List.rev acc
    | _ :: rest as l -> go rest (String.concat "." l :: acc)
  in
  go parts []

let build_table (summaries : module_summary list) =
  let by_name = Hashtbl.create 256 in
  List.iter
    (fun ms ->
      List.iter
        (fun f ->
          List.iter (fun key -> Hashtbl.replace by_name key f) (suffixes f.f_name))
        ms.m_funcs)
    summaries;
  { by_name }

let find table name = Hashtbl.find_opt table.by_name name

(* Transitive: does calling [name] allocate?  Returns a witness chain
   rendered as a string.  Unknown callees are assumed clean — the
   repo's own modules are all summarized, and the stdlib surface is in
   [known_allocators]. *)
let allocates table name =
  let rec go seen name =
    if List.exists (String.equal name) seen then None
    else if is_known_allocator name then Some (Printf.sprintf "`%s`" name)
    else
      match find table name with
      | None -> None
      | Some f -> (
          match
            List.find_opt (fun a -> Option.is_none a.a_cold) f.f_allocs
          with
          | Some a ->
              Some
                (Printf.sprintf "%s at %s:%d (%s)" f.f_name a.a_loc.s_file
                   a.a_loc.s_line (alloc_kind_desc a.a_kind))
          | None ->
              List.find_map
                (fun c ->
                  if Option.is_some c.c_cold then None
                  else
                    match go (name :: seen) c.c_callee with
                    | Some w ->
                        Some (Printf.sprintf "%s -> %s" f.f_name w)
                    | None -> None)
                f.f_calls)
  in
  go [] name

(* Transitive module-global accesses reachable by calling [name]. *)
let reaches_globals table name =
  let rec go seen name =
    if List.exists (String.equal name) seen then []
    else
      match find table name with
      | None -> []
      | Some f ->
          List.filter
            (fun x -> match x.x_root with R_global _ -> true | _ -> false)
            f.f_access
          @ List.concat_map (fun c -> go (name :: seen) c.c_callee) f.f_calls
  in
  go [] name

(* Transitive: which nolabel parameter indices of [name] end up
   mutated (directly, or by being passed as is to a mutating callee)? *)
let mutates_params table name =
  let rec go seen name =
    if List.exists (String.equal name) seen then []
    else
      match find table name with
      | None -> []
      | Some f ->
          let direct =
            List.filter_map
              (fun x ->
                match (x.x_op, x.x_root) with
                | (Mutate _ | Write_field _), R_param i -> Some i
                | _ -> None)
              f.f_access
          in
          let via_calls =
            List.concat_map
              (fun c ->
                let forwarded =
                  List.concat
                    (List.mapi
                       (fun pos a ->
                         match a with
                         | { ar_exact = true; ar_root = R_param i; _ } ->
                             [ (pos, i) ]
                         | _ -> [])
                       c.c_args)
                in
                if List.is_empty forwarded then []
                else
                  let mm = go (name :: seen) c.c_callee in
                  List.filter_map
                    (fun (pos, i) -> if List.mem pos mm then Some i else None)
                    forwarded)
              f.f_calls
          in
          List.sort_uniq Int.compare (direct @ via_calls)
  in
  go [] name

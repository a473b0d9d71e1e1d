(* Per-function summaries over the typedtree: what a function
   allocates, whom it calls (and the root of every argument it passes),
   what it mutates or dereferences (and whether each root is its own
   parameter, a local, a capture or module-level state), and which pool
   calls it makes.  This is histolint's one effect walker: the race pass
   (race.ml) and the hot-path allocation pass (alloc.ml) both read its
   records bottom-up, which is what makes histolint v2
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
    ("Randkit.Xoshiro.jump", 0);
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

type module_summary = {
  m_name : string;  (** canonical module name *)
  m_source : string;  (** normalized source path *)
  m_funcs : func_summary list;
  m_markers : marker list;
  m_pools : pool_site list;
  m_locals : (string, func_summary) Hashtbl.t;
  m_refs : string list;  (** canonical value paths the unit mentions *)
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

(* --- expression shape helpers ------------------------------------------- *)

let canonical_of_path p = canonical (Path.name p)

let rec root_of (e : Typedtree.expression) : Path.t option =
  match e.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | Typedtree.Texp_field (e, _, _) -> root_of e
  | Typedtree.Texp_apply (f, (_, Some a0) :: _) -> (
      match f.exp_desc with
      | Typedtree.Texp_ident (p, _, _) when is_getter (canonical_of_path p) ->
          root_of a0
      | _ -> None)
  | _ -> None

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

(* The applications whose function arguments run as concurrent tasks. *)
let is_pool_apply f =
  match head_ident f with
  | Some p ->
      List.mem (canonical_of_path p)
        [ "Parkit.Pool.map"; "Parkit.Pool.init"; "Domain.spawn" ]
  | None -> false

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

(* --- the summary walk --------------------------------------------------- *)

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

type walk_state = {
  ws_fallback : string;
  ws_bound : (string, int) Hashtbl.t;
      (** Ident stamps bound in the binding -> depth of the frame binding
          them *)
  ws_modname : string;  (** the enclosing (sub)module's path *)
  ws_scope : (string, string) Hashtbl.t;
      (** module-level Ident stamps -> qualified names: a submodule's
          bare reference to an outer value resolves to the outer path *)
  ws_locals : (string, func_summary) Hashtbl.t;
      (** the unit's local functions, by Ident stamp *)
  mutable ws_frame : frame;  (** the innermost frame *)
  mutable ws_pools : pool_site list;
  mutable ws_cold : marker list;  (** innermost alloc_ok region first *)
  mutable ws_markers : marker list;
  mutable ws_skip_head : Typedtree.expression option;
}

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
  | p -> R_global (canonical_of_path p)

let classify_root st (e : Typedtree.expression) =
  match root_of e with None -> R_opaque | Some p -> classify_path st p

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
   introduced by the chain, and the bodies to walk. *)
let peel_function (e : Typedtree.expression) =
  let rec go nolabel_idx params binders (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_function { arg_label; param; cases; _ } ->
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
        (match cases with
        | [ { c_lhs = _; c_guard = None; c_rhs } ] ->
            go nolabel_idx params binders c_rhs
        | cases ->
            ( params,
              binders,
              List.concat_map
                (fun (c : Typedtree.value Typedtree.case) ->
                  (match c.c_guard with Some g -> [ g ] | None -> [])
                  @ [ c.c_rhs ])
                cases ))
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
        let params, binders, bodies = go nolabel_idx params binders body in
        ( params,
          binders,
          List.map (fun (vb : Typedtree.value_binding) -> vb.vb_expr) vbs
          @ bodies )
    | _ -> (params, binders, [ e ])
  in
  go 0 [] [] e

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
        let name = canonical_of_path p in
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
  let expr sub (e : Typedtree.expression) =
    let is_raise_subtree =
      match e.exp_desc with
      | Typedtree.Texp_apply (f, _) -> (
          match head_ident f with
          | Some p -> is_raise (canonical_of_path p)
          | None -> false)
      | Typedtree.Texp_assert _ -> true
      | _ -> false
    in
    if is_raise_subtree then ()
    else begin
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
      | Typedtree.Texp_function _ -> add_alloc st A_closure e.exp_loc
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
          if not (List.is_empty elts) then
            add_alloc st A_array_literal e.exp_loc
      | Typedtree.Texp_lazy _ -> add_alloc st A_lazy e.exp_loc
      | Typedtree.Texp_letop _ -> add_alloc st A_closure e.exp_loc
      | Typedtree.Texp_setfield (target, _, ld, _) ->
          add_access st (Write_field ld.lbl_name) e.exp_loc target
      | _ -> ());
      (match e.exp_desc with
      | Typedtree.Texp_apply (f, args) when is_pool_apply f ->
          walk_pool sub e f args
      | _ -> default.expr sub e);
      if pushed then st.ws_cold <- List.tl st.ws_cold
    end
  in
  (* A [let]-bound local function is a frame of its own, kept by stamp
     for the tasks that call it or are it. *)
  let value_binding sub (vb : Typedtree.value_binding) =
    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Typedtree.Tpat_var (id, _), Typedtree.Texp_function _ ->
        sub.Tast_iterator.pat sub vb.vb_pat;
        Hashtbl.replace st.ws_locals (Ident.unique_name id)
          (in_frame sub ~name:(Ident.name id) vb.vb_expr)
    | _ -> default.value_binding sub vb
  in
  { default with expr; pat; value_binding }

(* Walk one module-level binding (or evaluated expression).  A named
   binding yields its function summary and alloc_ok markers; every
   binding yields its pool sites. *)
let summarize_binding ~modname ~scope ~locals ~source ?self
    (e : Typedtree.expression) =
  let params, binders, bodies = peel_function e in
  let st =
    {
      ws_fallback = source;
      ws_bound = Hashtbl.create 64;
      ws_modname = modname;
      ws_scope = scope;
      ws_locals = locals;
      ws_frame = new_frame 0 params;
      ws_pools = [];
      ws_cold = [];
      ws_markers = [];
      ws_skip_head = None;
    }
  in
  Option.iter (bind st) self;
  List.iter (bind st) binders;
  let it = walk_iterator st in
  List.iter (fun body -> it.expr it body) bodies;
  (st.ws_frame, List.rev st.ws_markers, List.rev st.ws_pools)

(* --- references and exports (dead/unreferenced-export) ------------------ *)

(* Every qualified path the unit mentions: values through [Texp_ident],
   with local module aliases resolved to their target, and modules used
   whole — functor arguments, packed first-class modules, signature
   coercions, [include].  [open] needs no entry: the typer already
   resolves an opened name to its full path.  Unqualified names other
   than compilation units are the unit's own and are not recorded. *)
let references (str : Typedtree.structure) =
  let aliases = Hashtbl.create 8 in
  let values = ref [] and whole = ref [] in
  let rec resolve (p : Path.t) =
    match p with
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases (Ident.unique_name id) with
        | Some target -> target
        | None -> p)
    | Path.Pdot (q, s) -> Path.Pdot (resolve q, s)
    | p -> p
  in
  let note acc p =
    match resolve p with
    | Path.Pident id when not (Ident.persistent id) -> ()
    | p -> acc := canonical_of_path p :: !acc
  in
  let rec alias id (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) ->
        Hashtbl.replace aliases (Ident.unique_name id) (resolve p);
        true
    | Typedtree.Tmod_constraint (me, _, Typedtree.Tmodtype_implicit, _) ->
        alias id me
    | _ -> false
  in
  let default = Tast_iterator.default_iterator in
  let module_expr sub (me : Typedtree.module_expr) =
    (match me.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> note whole p
    | _ -> ());
    default.module_expr sub me
  in
  let module_binding sub (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | Some id when alias id mb.mb_expr -> ()
    | _ -> default.module_binding sub mb
  in
  let open_declaration sub (od : Typedtree.open_declaration) =
    match od.open_expr.mod_desc with
    | Typedtree.Tmod_ident _ -> ()
    | _ -> default.open_declaration sub od
  in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Typedtree.Texp_letmodule (Some id, _, _, me, body) when alias id me ->
        sub.Tast_iterator.expr sub body
    | Typedtree.Texp_ident (p, _, _) -> note values p
    | _ -> default.expr sub e
  in
  let it =
    { default with expr; module_expr; module_binding; open_declaration }
  in
  it.structure it str;
  (List.sort_uniq String.compare !values, List.sort_uniq String.compare !whole)

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
  let scope = Hashtbl.create 64 and locals = Hashtbl.create 16 in
  let funcs = ref [] and markers = ref [] and pools = ref [] in
  let walk ~prefix ?self e =
    let fr, mks, ps =
      summarize_binding ~modname:prefix ~scope ~locals ~source ?self e
    in
    pools := List.rev_append ps !pools;
    (fr, mks)
  in
  (* Any other module expression (a functor body, a constrained or
     included [struct]) contributes its pool sites only. *)
  let pools_in prefix (si : Typedtree.structure_item) =
    let default = Tast_iterator.default_iterator in
    let structure_item sub (si : Typedtree.structure_item) =
      match si.str_desc with
      | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              ignore (walk ~prefix vb.vb_expr))
            vbs
      | Typedtree.Tstr_eval (e, _) -> ignore (walk ~prefix e)
      | _ -> default.structure_item sub si
    in
    let it = { default with structure_item } in
    default.structure_item it si
  in
  (* Submodules defined by a plain [struct] are summarized too, their
     functions named by the full path ([Service.Batch.push_sub]).  A
     binding that names no function ([let () = ...]) still has its pool
     sites. *)
  let rec items prefix (str : Typedtree.structure) =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Typedtree.Tpat_var (id, _) ->
                    let name = prefix ^ "." ^ Ident.name id in
                    Hashtbl.replace scope (Ident.unique_name id) name;
                    let fr, mks = walk ~prefix ~self:id vb.vb_expr in
                    funcs :=
                      summary_of ~name ~loc:(sloc_of ~fallback:source vb.vb_loc)
                        ~hot:(has_attr "histolint.hot" vb.vb_attributes)
                        fr
                      :: !funcs;
                    markers := List.rev_append mks !markers
                | _ -> ignore (walk ~prefix vb.vb_expr))
              vbs
        | Typedtree.Tstr_eval (e, _) -> ignore (walk ~prefix e)
        | Typedtree.Tstr_module
            { mb_id = Some id; mb_expr = { mod_desc = Tmod_structure sub; _ }; _ }
          ->
            items (prefix ^ "." ^ Ident.name id) sub
        | Typedtree.Tstr_module { mb_id = Some id; _ } ->
            pools_in (prefix ^ "." ^ Ident.name id) si
        | _ -> pools_in prefix si)
      str.str_items
  in
  items modname str;
  let refs, whole = references str in
  {
    m_name = modname;
    m_source = source;
    m_funcs = List.rev !funcs;
    m_markers = List.rev !markers;
    m_pools = List.rev !pools;
    m_locals = locals;
    m_refs = refs;
    m_whole = whole;
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

(* Per-function summaries over the typedtree: what a function
   allocates, whom it calls (and which of its parameters it forwards),
   which of its parameters it mutates, and which module-level mutable
   locations it touches.  The race pass (race.ml) and the hot-path
   allocation pass (alloc.ml) both query these bottom-up, which is
   what makes histolint v2 interprocedural: a helper that leaks a
   captured ref, or allocates, two calls away from the flagged site is
   still seen.

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
    ("Randkit.Rng.unit_open", 0);
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

type call_site = {
  c_callee : string;  (** canonical *)
  c_loc : sloc;
  c_cold : string option;
  c_param_args : (int * int) list;
      (** (callee nolabel arg position, caller param index) for
          arguments that are exactly one of the caller's parameters *)
}

type access_kind = Read | Write

type global_access = {
  g_path : string;  (** canonical *)
  g_kind : access_kind;
  g_loc : sloc;
  g_desc : string;
}

type func_summary = {
  f_name : string;  (** canonical, module-qualified *)
  f_loc : sloc;
  f_hot : bool;
  f_allocs : alloc_site list;
  f_calls : call_site list;
  f_mutates : int list;  (** nolabel parameter indices *)
  f_globals : global_access list;
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

(* Does [e] mention any of [idents]?  Used for the disjoint-slot
   exemption: `arr.(i) <- v` is slot-private when the index expression
   involves a closure parameter. *)
let mentions_ident idents (e : Typedtree.expression) =
  let found = ref false in
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) ->
        if List.exists (Ident.same id) idents then found := true
    | _ -> ());
    if not !found then default.expr sub e
  in
  let it = { default with expr } in
  it.expr it e;
  !found

(* --- the summary walk --------------------------------------------------- *)

type walk_state = {
  ws_fallback : string;
  ws_bound : (string, unit) Hashtbl.t;  (** Ident stamps bound in scope *)
  ws_params : (Ident.t * int) list;  (** param ident -> nolabel index *)
  ws_modname : string;  (** the enclosing (sub)module's path *)
  ws_scope : (string, string) Hashtbl.t;
      (** module-level Ident stamps -> qualified names: a submodule's
          bare reference to an outer value resolves to the outer path *)
  mutable ws_allocs : alloc_site list;
  mutable ws_calls : call_site list;
  mutable ws_mutates : int list;
  mutable ws_globals : global_access list;
  mutable ws_cold : marker list;  (** innermost alloc_ok region first *)
  mutable ws_markers : marker list;
  mutable ws_skip_head : Typedtree.expression option;
}

let bind st id = Hashtbl.replace st.ws_bound (Ident.unique_name id) ()
let is_bound st id = Hashtbl.mem st.ws_bound (Ident.unique_name id)

let qualify st id =
  match Hashtbl.find_opt st.ws_scope (Ident.unique_name id) with
  | Some q -> q
  | None -> st.ws_modname ^ "." ^ Ident.name id

let param_index st id =
  List.find_map
    (fun (p, i) -> if Ident.same p id then Some i else None)
    st.ws_params

(* Classify the root of a mutated/dereferenced expression. *)
type root_class =
  | R_param of int
  | R_local
  | R_global of string  (** canonical path of a module-level location *)
  | R_opaque  (** no identifiable root (fresh value, complex expr) *)

let classify_root st (e : Typedtree.expression) =
  match root_of e with
  | None -> R_opaque
  | Some (Path.Pident id) -> (
      match param_index st id with
      | Some i -> R_param i
      | None ->
          if is_bound st id then R_local
          else R_global (qualify st id))
  | Some p -> R_global (canonical_of_path p)

let cold_reason st =
  match st.ws_cold with
  | [] -> None
  | mk :: _ ->
      mk.mk_hits <- mk.mk_hits + 1;
      (match mk.mk_reason with Some r -> Some r | None -> Some "(unaudited)")

let add_alloc st kind loc =
  st.ws_allocs <-
    { a_kind = kind; a_loc = sloc_of ~fallback:st.ws_fallback loc;
      a_cold = cold_reason st }
    :: st.ws_allocs

let add_global st ~kind ~desc path loc =
  st.ws_globals <-
    { g_path = path; g_kind = kind;
      g_loc = sloc_of ~fallback:st.ws_fallback loc; g_desc = desc }
    :: st.ws_globals

let add_mutates st i =
  if not (List.mem i st.ws_mutates) then st.ws_mutates <- i :: st.ws_mutates

let record_mutation st ~desc loc target =
  match classify_root st target with
  | R_param i -> add_mutates st i
  | R_local | R_opaque -> ()
  | R_global p -> add_global st ~kind:Write ~desc p loc

(* Peel the curried [Texp_function] chain of a top-level binding:
   returns the parameter->nolabel-index map, the set of all binder
   idents introduced by the chain, and the bodies to walk. *)
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
  let handle_apply (e : Typedtree.expression) f args =
    match head_ident f with
    | None -> ()
    | Some p ->
        st.ws_skip_head <- Some f;
        let name = canonical_of_path p in
        let nargs = nolabel_args args in
        (* mutation effects *)
        (match mutator_position name with
        | Some pos -> (
            match List.nth_opt nargs pos with
            | Some target ->
                record_mutation st ~desc:(Printf.sprintf "`%s`" name) e.exp_loc
                  target
            | None -> ())
        | None -> ());
        (if is_deref name then
           match nargs with
           | target :: _ -> (
               match classify_root st target with
               | R_global g ->
                   add_global st ~kind:Read
                     ~desc:(Printf.sprintf "`%s`" name) g e.exp_loc
               | _ -> ())
           | [] -> ());
        (* the call itself *)
        let callee_local =
          match p with
          | Path.Pident id -> is_bound st id
          | _ -> false
        in
        if not callee_local then begin
          let cold =
            match st.ws_cold with
            | [] -> None
            | mk :: _ ->
                mk.mk_hits <- mk.mk_hits + 1;
                Some (Option.value mk.mk_reason ~default:"(unaudited)")
          in
          let qualified =
            match p with
            | Path.Pident id -> qualify st id
            | _ -> name
          in
          let param_args =
            List.concat
              (List.mapi
                 (fun pos (a : Typedtree.expression) ->
                   match a.exp_desc with
                   | Typedtree.Texp_ident (Path.Pident id, _, _) -> (
                       match param_index st id with
                       | Some i -> [ (pos, i) ]
                       | None -> [])
                   | _ -> [])
                 nargs)
          in
          st.ws_calls <-
            { c_callee = qualified;
              c_loc = sloc_of ~fallback:st.ws_fallback e.exp_loc;
              c_cold = cold; c_param_args = param_args }
            :: st.ws_calls;
          (* partial application builds a closure *)
          if is_arrow e.exp_type && not (is_raise name) then
            add_alloc st A_partial e.exp_loc
          else if is_known_allocator name then
            add_alloc st (A_known name) e.exp_loc
        end
        else if is_arrow e.exp_type then
          (* partial application of a local function *)
          add_alloc st A_partial e.exp_loc
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
              { mk_loc = sloc_of ~fallback:st.ws_fallback e.exp_loc;
                mk_reason = reason; mk_hits = 0 }
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
          else
            (* a module-level function referenced in argument/value
               position: account for its effects as a zero-arg call
               (e.g. `List.iter bump xs` must see bump's effects) *)
            match p with
            | Path.Pident id when is_bound st id -> ()
            | _ when not (is_arrow e.exp_type) -> ()
            | _ ->
                let qualified =
                  match p with
                  | Path.Pident id -> qualify st id
                  | _ -> canonical_of_path p
                in
                if not (is_raise qualified || is_getter qualified) then
                  st.ws_calls <-
                    { c_callee = qualified;
                      c_loc = sloc_of ~fallback:st.ws_fallback e.exp_loc;
                      c_cold =
                        (match st.ws_cold with
                        | [] -> None
                        | mk :: _ ->
                            Some (Option.value mk.mk_reason
                                    ~default:"(unaudited)"));
                      c_param_args = [] }
                    :: st.ws_calls)
      | Typedtree.Texp_apply (f, args) -> handle_apply e f args
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
          record_mutation st
            ~desc:(Printf.sprintf "mutable field `%s` write" ld.lbl_name)
            e.exp_loc target
      | _ -> ());
      default.expr sub e;
      if pushed then st.ws_cold <- List.tl st.ws_cold
    end
  in
  { default with expr; pat }

let summarize_binding ~modname ~scope ~source (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Typedtree.Tpat_var (id, _) ->
      Hashtbl.replace scope (Ident.unique_name id)
        (modname ^ "." ^ Ident.name id);
      let params, binders, bodies = peel_function vb.vb_expr in
      let st =
        {
          ws_fallback = source;
          ws_bound = Hashtbl.create 64;
          ws_params = params;
          ws_modname = modname;
          ws_scope = scope;
          ws_allocs = [];
          ws_calls = [];
          ws_mutates = [];
          ws_globals = [];
          ws_cold = [];
          ws_markers = [];
          ws_skip_head = None;
        }
      in
      bind st id;
      List.iter (bind st) binders;
      let it = walk_iterator st in
      List.iter (fun body -> it.expr it body) bodies;
      let f =
        {
          f_name = modname ^ "." ^ Ident.name id;
          f_loc = sloc_of ~fallback:source vb.vb_loc;
          f_hot = has_attr "histolint.hot" vb.vb_attributes;
          f_allocs = List.rev st.ws_allocs;
          f_calls = List.rev st.ws_calls;
          f_mutates = List.sort Int.compare st.ws_mutates;
          f_globals = List.rev st.ws_globals;
        }
      in
      Some (f, List.rev st.ws_markers)
  | _ -> None

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
  let scope = Hashtbl.create 64 in
  let funcs = ref [] in
  let markers = ref [] in
  (* Submodules defined by a plain [struct] are summarized too, their
     functions named by the full path ([Service.Batch.push_sub]). *)
  let rec items prefix (str : Typedtree.structure) =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match summarize_binding ~modname:prefix ~scope ~source vb with
                | Some (f, mks) ->
                    funcs := f :: !funcs;
                    markers := List.rev_append mks !markers
                | None -> ())
              vbs
        | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } -> (
            match mb_expr.mod_desc with
            | Tmod_structure sub -> items (prefix ^ "." ^ Ident.name id) sub
            | _ -> ())
        | _ -> ())
      str.str_items
  in
  items modname str;
  let refs, whole = references str in
  {
    m_name = modname;
    m_source = source;
    m_funcs = List.rev !funcs;
    m_markers = List.rev !markers;
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
          f.f_globals
          @ List.concat_map (fun c -> go (name :: seen) c.c_callee) f.f_calls
  in
  go [] name

(* Transitive: which nolabel parameter indices of [name] end up
   mutated (directly, or by being forwarded to a mutating callee)? *)
let mutates_params table name =
  let rec go seen name =
    if List.exists (String.equal name) seen then []
    else
      match find table name with
      | None -> []
      | Some f ->
          let via_calls =
            List.concat_map
              (fun c ->
                match c.c_param_args with
                | [] -> []
                | pas ->
                    let mm = go (name :: seen) c.c_callee in
                    List.filter_map
                      (fun (pos, idx) ->
                        if List.mem pos mm then Some idx else None)
                      pas)
              f.f_calls
          in
          List.sort_uniq Int.compare (f.f_mutates @ via_calls)
  in
  go [] name

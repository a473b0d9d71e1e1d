(* The domain-safety pass: closures handed to Parkit.Pool (or
   Domain.spawn) run concurrently with their siblings on other
   domains, so any mutable location they reach that is *not* private
   to the task is a data race — exactly the nondeterminism the
   bit-identical replay gates exist to rule out.

   For each pool call site we analyze every function-typed argument:

   - locations reached through the closure's own parameters are safe
     (the pool hands each task its own value);
   - indexed stores `arr.(i) <- v` whose index expression mentions a
     closure parameter are the sanctioned disjoint-slot pattern
     (Pool's join is the happens-before edge that publishes them);
   - writes or [!]-derefs rooted in captured/module-level state are
     flagged, including interprocedurally: calls into summarized
     functions are checked for transitive parameter mutation (with the
     captured argument named) and transitive module-global access;
   - locally [let]-bound helpers passed by name (or called from the
     closure) are walked inline;
   - everything else — notably captured *function* values like the
     trial body in [Harness.run_trials] — is assumed safe.

   An audited [@histolint.disjoint "reason"] on the pool application
   turns the site's findings into suppressed audit entries. *)

type site = { rf_loc : Location.t; rf_msg : string }

type verdict = {
  sites : site list;
  disjoint : (Location.t * string option) option;
      (** a [@histolint.disjoint] on the application: loc and reason
          (None = reason missing, which is its own finding) *)
}

let pool_entrypoints =
  [
    "Parkit.Pool.map";
    "Parkit.Pool.init";
    "Domain.spawn";
  ]

let is_pool_entrypoint name = List.exists (String.equal name) pool_entrypoints

type ctx = {
  table : Summary.table;
  modname : string;
  toplevel : (string, unit) Hashtbl.t;  (** stamps of module-level idents *)
  local_fns : (Ident.t * Typedtree.expression) list;
  bound : (string, unit) Hashtbl.t;  (** stamps bound inside the closure *)
  slot_params : Ident.t list;
  mutable sites : site list;
  mutable walked : Ident.t list;  (** inline-walked local helpers *)
  mutable skip_head : Typedtree.expression option;
}

let bind ctx id = Hashtbl.replace ctx.bound (Ident.unique_name id) ()
let is_bound ctx id = Hashtbl.mem ctx.bound (Ident.unique_name id)
let is_toplevel ctx id = Hashtbl.mem ctx.toplevel (Ident.unique_name id)
let add ctx loc msg = ctx.sites <- { rf_loc = loc; rf_msg = msg } :: ctx.sites

(* How the closure sees the root of an access path. *)
type origin =
  | Task_private  (** parameter or closure-local binding *)
  | Captured of string  (** enclosing-function local captured by the closure *)
  | Module_level of string  (** canonical module-level path *)

let origin_of ctx (e : Typedtree.expression) =
  match Summary.root_of e with
  | None -> None
  | Some (Path.Pident id) ->
      if is_bound ctx id then Some Task_private
      else if is_toplevel ctx id then
        Some (Module_level (ctx.modname ^ "." ^ Ident.name id))
      else Some (Captured (Ident.name id))
  | Some p -> Some (Module_level (Summary.canonical_of_path p))

let shared_name = function
  | Captured n -> Printf.sprintf "`%s` (captured from the enclosing scope)" n
  | Module_level n -> Printf.sprintf "module-level `%s`" n
  | Task_private -> assert false

let name_of ctx (p : Path.t) =
  match p with
  | Path.Pident id when is_toplevel ctx id -> ctx.modname ^ "." ^ Ident.name id
  | _ -> Summary.canonical_of_path p

(* A summarized callee is hazardous if it can touch module-level
   mutable state (writes, or [!]-style reads — plain array/field reads
   of shared immutable-usage tables are not recorded in summaries). *)
let check_summarized_callee ctx loc callee =
  List.iter
    (fun (g : Summary.global_access) ->
      let verb =
        match g.g_kind with Summary.Write -> "writes" | Summary.Read -> "reads"
      in
      add ctx loc
        (Printf.sprintf
           "call to `%s` %s module-level mutable `%s` (%s at %s:%d); sibling \
            tasks race on it"
           callee verb g.g_path g.g_desc g.g_loc.Summary.s_file
           g.g_loc.Summary.s_line))
    (Summary.reaches_globals ctx.table callee)

let rec walk_expr ctx (e : Typedtree.expression) =
  let default = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun sub p ->
    (match p.pat_desc with
    | Typedtree.Tpat_var (id, _) -> bind ctx id
    | Typedtree.Tpat_alias (_, id, _) -> bind ctx id
    | _ -> ());
    default.pat sub p
  in
  let expr sub (e : Typedtree.expression) =
    let is_raise_subtree =
      match e.exp_desc with
      | Typedtree.Texp_apply (f, _) -> (
          match Summary.head_ident f with
          | Some p -> Summary.is_raise (Summary.canonical_of_path p)
          | None -> false)
      | Typedtree.Texp_assert _ -> true
      | _ -> false
    in
    if is_raise_subtree then ()
    else begin
      (match e.exp_desc with
      | Typedtree.Texp_setfield (target, _, ld, _) -> (
          match origin_of ctx target with
          | Some Task_private | None -> ()
          | Some o ->
              add ctx e.exp_loc
                (Printf.sprintf
                   "task closure writes mutable field `%s` of %s; sibling \
                    tasks on other domains share it"
                   ld.lbl_name (shared_name o)))
      | Typedtree.Texp_apply (f, args) -> handle_apply ctx e f args
      | Typedtree.Texp_ident (p, _, _) -> (
          let skip =
            match ctx.skip_head with Some h when h == e -> true | _ -> false
          in
          if skip then ctx.skip_head <- None
          else if Summary.is_arrow e.exp_type then
            (* a function passed along by name (e.g. to List.iter):
               its effects run on this task's domain *)
            match p with
            | Path.Pident id when is_bound ctx id -> ()
            | Path.Pident id when not (is_toplevel ctx id) ->
                inline_local_fn ctx id
            | p -> check_summarized_callee ctx e.exp_loc (name_of ctx p))
      | _ -> ());
      default.expr sub e
    end
  in
  let it = { default with expr; pat } in
  it.expr it e

and inline_local_fn ctx id =
  (* A captured local: if it is a [let]-bound function whose body we
     saw, walk it inline (its params become task-private); otherwise —
     e.g. a function-valued parameter of the enclosing function — we
     assume the caller passed something safe. *)
  if not (List.exists (Ident.same id) ctx.walked) then begin
    ctx.walked <- id :: ctx.walked;
    match
      List.find_map
        (fun (fid, fe) -> if Ident.same fid id then Some fe else None)
        ctx.local_fns
    with
    | None -> ()
    | Some fn_expr ->
        let _params, binders, bodies = Summary.peel_function fn_expr in
        List.iter (bind ctx) binders;
        List.iter (walk_expr ctx) bodies
  end

and handle_apply ctx (e : Typedtree.expression) f args =
  match Summary.head_ident f with
  | None -> ()
  | Some p ->
      ctx.skip_head <- Some f;
      let nargs = Summary.nolabel_args args in
      let name = Summary.canonical_of_path p in
      (* direct mutation through a known mutator *)
      (match Summary.mutator_position name with
      | Some pos -> (
          match List.nth_opt nargs pos with
          | None -> ()
          | Some target -> (
              match origin_of ctx target with
              | Some Task_private | None -> ()
              | Some o ->
                  let exempt =
                    Summary.is_indexed_store name
                    &&
                    match List.nth_opt nargs 1 with
                    | Some idx -> Summary.mentions_ident ctx.slot_params idx
                    | None -> false
                  in
                  if not exempt then
                    add ctx e.exp_loc
                      (Printf.sprintf
                         "task closure mutates %s via `%s`; sibling tasks on \
                          other domains share it (index a result slot by the \
                          task parameter, or audit with [@histolint.disjoint])"
                         (shared_name o) name)))
      | None -> ());
      (if Summary.is_deref name then
         match nargs with
         | target :: _ -> (
             match origin_of ctx target with
             | Some Task_private | None -> ()
             | Some o ->
                 add ctx e.exp_loc
                   (Printf.sprintf
                      "task closure reads shared mutable %s; a sibling's \
                       write would race"
                      (shared_name o)))
         | [] -> ());
      (* the callee itself *)
      match p with
      | Path.Pident id when is_bound ctx id -> ()
      | Path.Pident id when not (is_toplevel ctx id) -> inline_local_fn ctx id
      | p ->
          let callee = name_of ctx p in
          check_summarized_callee ctx e.exp_loc callee;
          (* captured arguments forwarded into a callee that mutates
             that parameter *)
          let mutated = Summary.mutates_params ctx.table callee in
          if not (List.is_empty mutated) then
            List.iteri
              (fun pos (a : Typedtree.expression) ->
                if List.mem pos mutated then
                  match origin_of ctx a with
                  | Some Task_private | None -> ()
                  | Some o ->
                      add ctx a.exp_loc
                        (Printf.sprintf
                           "`%s` mutates its argument %d, and the task \
                            closure passes %s; sibling tasks race on it"
                           callee pos (shared_name o)))
              nargs

(* --- entry points -------------------------------------------------------- *)

let fresh_ctx ~table ~modname ~toplevel ~local_fns ~slot_params =
  {
    table;
    modname;
    toplevel;
    local_fns;
    bound = Hashtbl.create 64;
    slot_params;
    sites = [];
    walked = [];
    skip_head = None;
  }

let analyze_closure ~table ~modname ~toplevel ~local_fns
    (e : Typedtree.expression) =
  let params, binders, bodies = Summary.peel_function e in
  let ctx =
    fresh_ctx ~table ~modname ~toplevel ~local_fns
      ~slot_params:(List.map fst params)
  in
  List.iter (bind ctx) binders;
  List.iter (walk_expr ctx) bodies;
  List.rev ctx.sites

let analyze_named_callee ~table ~modname ~toplevel ~local_fns loc callee =
  let ctx = fresh_ctx ~table ~modname ~toplevel ~local_fns ~slot_params:[] in
  check_summarized_callee ctx loc callee;
  List.rev ctx.sites

let check_apply ~table ~modname ~toplevel ~local_fns (e : Typedtree.expression)
    =
  match e.exp_desc with
  | Typedtree.Texp_apply (f, args) -> (
      match Summary.head_ident f with
      | Some p when is_pool_entrypoint (Summary.canonical_of_path p) ->
          let disjoint =
            match
              Summary.reason_attr "histolint.disjoint" e.exp_attributes
            with
            | Some reason -> Some (e.exp_loc, reason)
            | None -> None
          in
          let sites =
            List.concat_map
              (fun (a : Typedtree.expression) ->
                match a.exp_desc with
                | Typedtree.Texp_function _ ->
                    analyze_closure ~table ~modname ~toplevel ~local_fns a
                | Typedtree.Texp_ident (Path.Pident id, _, _)
                  when not (Hashtbl.mem toplevel (Ident.unique_name id)) -> (
                    match
                      List.find_map
                        (fun (fid, fe) ->
                          if Ident.same fid id then Some fe else None)
                        local_fns
                    with
                    | Some fn_expr ->
                        analyze_closure ~table ~modname ~toplevel ~local_fns
                          fn_expr
                    | None -> [])
                | Typedtree.Texp_ident (p, _, _)
                  when Summary.is_arrow a.exp_type ->
                    let callee =
                      match p with
                      | Path.Pident id -> modname ^ "." ^ Ident.name id
                      | _ -> Summary.canonical_of_path p
                    in
                    analyze_named_callee ~table ~modname ~toplevel ~local_fns
                      a.exp_loc callee
                | _ -> [])
              (Summary.nolabel_args args)
          in
          Some { sites; disjoint }
      | _ -> None)
  | _ -> None

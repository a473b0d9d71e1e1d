(* The histolint engine, v2: a two-pass scan over the compiled
   typedtrees.

   Pass A summarizes every compilation unit (Summary.of_structure, the
   one effect walker) in memory and builds the cross-module table.
   Pass B walks each typedtree once more for the v1 per-expression
   rules and the suppression attributes, then runs the two summary
   checks — the race pass (race.ml) and the hot-path allocation pass
   (alloc.ml) — all feeding the same suppression machinery and audit
   trail. *)

type config = { lib_prefixes : string list }

type report = {
  findings : Finding.t list;
  suppressed : Finding.t list;
  audit : Finding.audit list;
  units : int;
}

let empty_report = { findings = []; suppressed = []; audit = []; units = 0 }

let merge a b =
  {
    findings = a.findings @ b.findings;
    suppressed = a.suppressed @ b.suppressed;
    audit = a.audit @ b.audit;
    units = a.units + b.units;
  }

let count sev r =
  List.length
    (List.filter
       (fun f -> Rules.severity_equal (Rules.severity f.Finding.rule) sev)
       r)

let errors r = count Rules.Error r.findings
let warnings r = count Rules.Warn r.findings

let rule_counts r =
  List.filter_map
    (fun rule ->
      let n =
        List.length
          (List.filter
             (fun f ->
               String.equal (Rules.name f.Finding.rule) (Rules.name rule))
             r.findings)
      in
      if n > 0 then Some (Rules.name rule, n) else None)
    Rules.all

let normalize_source = Summary.normalize_source
let normalize_ident = Summary.canonical

let unordered_hashtbl_ops =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let wallclock_ops = [ "Sys.time"; "Unix.gettimeofday"; "Unix.time" ]
let poly_compare_ops = [ "compare"; "="; "<>"; "min"; "max" ]

(* --- type classification for poly-compare rules ------------------------ *)

type arg_class =
  | At_float of string  (* float, or a float container *)
  | At_structural of string  (* non-immediate: tuples, records, ... *)
  | At_benign  (* int/bool/char/unit, strings, boxed ints *)
  | At_unknown  (* still polymorphic at the use site *)

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
        let container = normalize_ident (Path.name p) in
        match args with
        | [ elt ] -> (
            match classify_type elt with
            | At_float elt_name ->
                At_float (Printf.sprintf "%s %s" elt_name container)
            | _ -> At_structural container)
        | _ -> At_structural container)
      else At_structural (normalize_ident (Path.name p))
  | Types.Ttuple _ -> At_structural "tuple"
  | Types.Tarrow _ -> At_structural "function"
  | Types.Tvar _ | Types.Tunivar _ -> At_unknown
  | _ -> At_unknown

let first_arg_type ty =
  match Types.get_desc ty with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

(* --- suppression ([@histolint.allow "rule"]) --------------------------- *)

type allow = {
  allow_rules : string list;
  allow_file : string;
  allow_from : int;  (* char offsets; [allow_to = max_int] for floating *)
  allow_to : int;
  allow_line : int;
  allow_col : int;
}

let payload_strings = Summary.payload_strings

let allows_of_attributes ~(range : Location.t) attrs =
  List.filter_map
    (fun (attr : Parsetree.attribute) ->
      if String.equal attr.attr_name.txt "histolint.allow" then
        match payload_strings attr.attr_payload with
        | [] -> None
        | rules ->
            Some
              ( {
                  allow_rules = rules;
                  allow_file = normalize_source range.loc_start.pos_fname;
                  allow_from = range.loc_start.pos_cnum;
                  allow_to = range.loc_end.pos_cnum;
                  allow_line = attr.attr_loc.loc_start.pos_lnum;
                  allow_col =
                    attr.attr_loc.loc_start.pos_cnum
                    - attr.attr_loc.loc_start.pos_bol;
                },
                attr.attr_loc )
      else None)
    attrs

let allow_matches allow ~file ~cnum ~rule_name =
  String.equal allow.allow_file file
  && cnum >= allow.allow_from
  && cnum <= allow.allow_to
  && List.exists
       (fun r -> String.equal r rule_name || String.equal r "*")
       allow.allow_rules

(* --- the walk ----------------------------------------------------------- *)

type ctx = {
  scope : Rules.scope;
  fallback_file : string;
  table : Summary.table;
  mutable raw : (Finding.t * int) list;  (* finding, char offset *)
  mutable pre_suppressed : Finding.t list;  (* suppressed by [@disjoint] *)
  mutable allows : allow list;
  mutable audits : Finding.audit list;
}

(* A finding at [s], with the char offset allows are matched against. *)
let finding_at (s : Summary.sloc) rule message =
  ( { Finding.file = s.s_file; line = s.s_line; col = s.s_col; rule; message },
    s.s_cnum )

let add_finding_at ctx rule s message =
  if Rules.applies rule ctx.scope then
    ctx.raw <- finding_at s rule message :: ctx.raw

let add_finding ctx rule loc message =
  add_finding_at ctx rule
    (Summary.sloc_of ~fallback:ctx.fallback_file loc)
    message

let audited_scope ctx =
  match ctx.scope with
  | Rules.Lib | Rules.Lib_parallel | Rules.Bin -> true
  | Rules.Test | Rules.Bench | Rules.Other -> false

let add_audit ctx entry =
  if audited_scope ctx then ctx.audits <- entry :: ctx.audits

let check_ident ctx path (loc : Location.t) ty =
  let id = normalize_ident (Path.name path) in
  let starts_with prefix =
    String.length id >= String.length prefix
    && String.equal (String.sub id 0 (String.length prefix)) prefix
  in
  if starts_with "Random." then
    add_finding ctx Rules.Det_stdlib_random loc
      (Printf.sprintf
         "`%s`: randomness must flow through Randkit (lib/rng) so trial \
          streams stay seedable and splittable"
         id)
  else if List.exists (String.equal id) unordered_hashtbl_ops then
    add_finding ctx Rules.Det_hashtbl_order loc
      (Printf.sprintf
         "`%s` iterates in hash-bucket order; sort the keys or use an array"
         id)
  else if List.exists (String.equal id) wallclock_ops then
    add_finding ctx Rules.Det_wallclock loc
      (Printf.sprintf "`%s` reads the wall clock; timing belongs in bench/" id)
  else if String.equal id "Domain.spawn" then
    add_finding ctx Rules.Par_raw_domain loc
      "`Domain.spawn` outside lib/parallel bypasses Parkit.Pool and its \
       pre-split RNG discipline"
  else if List.exists (String.equal id) poly_compare_ops then
    match Option.map classify_type (first_arg_type ty) with
    | Some (At_float at) ->
        add_finding ctx Rules.Float_poly_compare loc
          (Printf.sprintf
             "polymorphic `%s` instantiated at %s: NaN-hostile and boxes on \
              hot paths; use the Float module's monomorphic equivalent"
             id at)
    | Some (At_structural at) ->
        add_finding ctx Rules.Poly_compare_structural loc
          (Printf.sprintf
             "polymorphic `%s` instantiated at a non-immediate type (%s); \
              prefer a monomorphic compare"
             id at)
    | Some At_benign | Some At_unknown | None -> ()

(* A module-level binding of a [Lazy.t] value, in any structure of the
   unit (a submodule's bindings are module-level too).  Judged by the
   binding's type, so [lazy e] and [Lazy.from_fun f] are both caught. *)
let check_toplevel_lazy ctx (vb : Typedtree.value_binding) =
  match Types.get_desc vb.vb_expr.exp_type with
  | Types.Tconstr (path, _, _)
    when List.exists (String.equal (Path.name path))
           [ "lazy_t"; "Lazy.t"; "Stdlib.Lazy.t"; "CamlinternalLazy.t" ] ->
      let name =
        match Typedtree.pat_bound_idents vb.vb_pat with
        | id :: _ -> Ident.name id
        | [] -> "_"
      in
      add_finding ctx Rules.Par_toplevel_lazy vb.vb_loc
        (Printf.sprintf
           "toplevel lazy `%s`: two domains forcing it at once make one \
            raise CamlinternalLazy.Undefined; build it eagerly at module \
            initialisation"
           name)
  | _ -> ()

(* Validate the rule ids an [@histolint.allow] names: a typo would
   silently suppress nothing, or rot after a rename. *)
let validate_allow_rules ctx (attr_loc : Location.t) rules =
  List.iter
    (fun r ->
      if (not (String.equal r "*")) && Option.is_none (Rules.of_name r) then
        add_finding ctx Rules.Lint_unknown_allow attr_loc
          (Printf.sprintf
             "[@histolint.allow] names unknown rule id `%s` (see histolint \
              --rules)"
             r))
    rules

let collect_allows ctx ~(range : Location.t) attrs =
  List.iter
    (fun (allow, attr_loc) ->
      validate_allow_rules ctx attr_loc allow.allow_rules;
      ctx.allows <- allow :: ctx.allows)
    (allows_of_attributes ~range attrs)

(* --- the summary checks: race pass, alloc pass + markers ----------------- *)

let handle_race_verdict ctx (v : Race.verdict) =
  let findings =
    List.map
      (fun (s : Race.site) ->
        finding_at s.rf_loc Rules.Par_shared_mutable s.rf_msg)
      v.sites
  in
  match v.disjoint with
  | None -> List.iter (fun fc -> ctx.raw <- fc :: ctx.raw) findings
  | Some (d, reason) -> (
      add_audit ctx
        {
          Finding.au_file = d.Summary.s_file;
          au_line = d.Summary.s_line;
          au_col = d.Summary.s_col;
          au_kind = "disjoint";
          au_rules = [ Rules.name Rules.Par_shared_mutable ];
          au_reason = reason;
          au_used = not (List.is_empty findings);
        };
      match reason with
      | Some _ -> ctx.pre_suppressed <- List.map fst findings @ ctx.pre_suppressed
      | None ->
          (* reason missing: the suppression is void and itself a finding *)
          add_finding_at ctx Rules.Lint_unknown_allow d
            "[@histolint.disjoint] is missing its mandatory reason string";
          List.iter (fun fc -> ctx.raw <- fc :: ctx.raw) findings)

let iterator ctx =
  let default = Tast_iterator.default_iterator in
  let expr sub (e : Typedtree.expression) =
    collect_allows ctx ~range:e.exp_loc e.exp_attributes;
    (match e.exp_desc with
    | Typedtree.Texp_ident (path, lid, _) ->
        check_ident ctx path lid.loc e.exp_type
    | _ -> ());
    default.expr sub e
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    collect_allows ctx ~range:vb.vb_loc vb.vb_attributes;
    default.value_binding sub vb
  in
  let structure_item sub (si : Typedtree.structure_item) =
    (match si.str_desc with
    | Typedtree.Tstr_value (_, vbs) -> List.iter (check_toplevel_lazy ctx) vbs
    | Typedtree.Tstr_attribute attr ->
        (* Floating [@@@histolint.allow]: suppress to end of file. *)
        let range =
          { si.str_loc with
            loc_end = { si.str_loc.loc_end with pos_cnum = max_int } }
        in
        collect_allows ctx ~range [ attr ]
    | _ -> ());
    default.structure_item sub si
  in
  { default with expr; value_binding; structure_item }

let run_race_pass ctx msum =
  if Rules.applies Rules.Par_shared_mutable ctx.scope then
    List.iter (handle_race_verdict ctx) (Race.check_module ~table:ctx.table msum)

let run_alloc_pass ctx (msum : Summary.module_summary) =
  if Rules.applies Rules.Hot_alloc ctx.scope then begin
    List.iter
      (fun (s : Alloc.site) ->
        ctx.raw <- finding_at s.af_loc Rules.Hot_alloc s.af_msg :: ctx.raw)
      (Alloc.check_module ~table:ctx.table msum);
    List.iter
      (fun (mk : Summary.marker) ->
        add_audit ctx
          {
            Finding.au_file = mk.mk_loc.Summary.s_file;
            au_line = mk.mk_loc.Summary.s_line;
            au_col = mk.mk_loc.Summary.s_col;
            au_kind = "alloc_ok";
            au_rules = [ Rules.name Rules.Hot_alloc ];
            au_reason = mk.mk_reason;
            au_used = mk.mk_hits > 0;
          };
        if Option.is_none mk.mk_reason then
          add_finding_at ctx Rules.Lint_unknown_allow mk.mk_loc
            "[@histolint.alloc_ok] is missing its mandatory reason string")
      msum.m_markers
  end

(* --- cmt loading -------------------------------------------------------- *)

type unit_info = {
  u_modname : string;
  u_source : string;
  u_structure : Typedtree.structure;
  u_intf : Typedtree.signature option;  (* from the sibling .cmti *)
}

let load_unit path =
  match (try Some (Cmt_format.read_cmt path) with _ -> None) with
  | None ->
      Printf.eprintf "histolint: warning: cannot read %s\n%!" path;
      None
  | Some cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation structure, Some source ->
          let cmti = Filename.remove_extension path ^ ".cmti" in
          let intf =
            match
              (try Some (Cmt_format.read_cmt cmti) with _ -> None)
            with
            | Some { Cmt_format.cmt_annots = Cmt_format.Interface sg; _ } ->
                Some sg
            | _ -> None
          in
          Some
            {
              u_modname = cmt.Cmt_format.cmt_modname;
              u_source = normalize_source source;
              u_structure = structure;
              u_intf = intf;
            }
      | _ -> None)

let summarize u =
  Summary.of_structure ~modname:u.u_modname ~source:u.u_source ?intf:u.u_intf
    u.u_structure

let scan_unit config table u msum =
  let scope = Rules.scope_of_path ~lib_prefixes:config.lib_prefixes u.u_source in
  let ctx =
    {
      scope;
      fallback_file = u.u_source;
      table;
      raw = [];
      pre_suppressed = [];
      allows = [];
      audits = [];
    }
  in
  let it = iterator ctx in
  it.structure it u.u_structure;
  run_race_pass ctx msum;
  run_alloc_pass ctx msum;
  let live, suppressed =
    List.partition
      (fun (finding, cnum) ->
        not
          (List.exists
             (fun allow ->
               allow_matches allow ~file:finding.Finding.file ~cnum
                 ~rule_name:(Rules.name finding.Finding.rule))
             ctx.allows))
      ctx.raw
  in
  let allow_audits =
    if audited_scope ctx then
      List.map
        (fun allow ->
          {
            Finding.au_file = allow.allow_file;
            au_line = allow.allow_line;
            au_col = allow.allow_col;
            au_kind = "allow";
            au_rules = allow.allow_rules;
            au_reason = None;
            au_used =
              List.exists
                (fun (finding, cnum) ->
                  allow_matches allow ~file:finding.Finding.file ~cnum
                    ~rule_name:(Rules.name finding.Finding.rule))
                suppressed;
          })
        ctx.allows
    else []
  in
  {
    findings = List.map fst live;
    suppressed = List.map fst suppressed @ ctx.pre_suppressed;
    audit = allow_audits @ ctx.audits;
    units = 1;
  }

(* --- dead exports: a whole-program pass over the summaries --------------- *)

(* ["A.B.f"] -> ["A.B.f"; "B.f"]: how a reference may spell the name,
   whether or not the defining library is wrapped. *)
let rec dotted_suffixes name =
  match String.index_opt name '.' with
  | None -> []
  | Some i ->
      name
      :: dotted_suffixes (String.sub name (i + 1) (String.length name - i - 1))

(* ["A.B.f"] -> ["A"; "A.B"]: every module whose whole use covers f. *)
let enclosing_modules name =
  let rec prefixes acc = function
    | [] | [ _ ] -> []
    | m :: rest ->
        let p = if String.equal acc "" then m else acc ^ "." ^ m in
        p :: prefixes p rest
  in
  prefixes "" (String.split_on_char '.' name)

let dead_message name =
  Printf.sprintf
    "`%s` is exported but no other production unit references it \
     (histolint --explain dead/unreferenced-export)"
    name

(* Subjects are the .mli values of lib/ units (refkit excluded); a subject
   is live when a production unit other than its own references it, or
   uses a module enclosing it whole.  A reasoned keep moves its finding to
   [suppressed]; a reasonless one suppresses nothing and is itself a
   finding.  Every keep is audited. *)
let dead_exports config (summaries : Summary.module_summary list) =
  let refs = Hashtbl.create 4096 and whole = Hashtbl.create 64 in
  List.iter
    (fun (ms : Summary.module_summary) ->
      if Rules.is_production ~lib_prefixes:config.lib_prefixes ms.m_source
      then begin
        List.iter (fun r -> Hashtbl.add refs r ms.m_name) ms.m_refs;
        List.iter (fun m -> Hashtbl.add whole m ms.m_name) ms.m_whole
      end)
    summaries;
  let used_elsewhere (ms : Summary.module_summary) tbl keys =
    List.exists
      (fun k ->
        List.exists
          (fun u -> not (String.equal u ms.m_name))
          (Hashtbl.find_all tbl k))
      keys
  in
  let subject (ms : Summary.module_summary) =
    Rules.applies Rules.Dead_unreferenced_export
      (Rules.scope_of_path ~lib_prefixes:config.lib_prefixes ms.m_source)
    && not (String.starts_with ~prefix:Rules.reference_prefix ms.m_source)
  in
  let check ms (e : Summary.export) =
    let finding rule message =
      { Finding.file = e.e_loc.s_file; line = e.e_loc.s_line;
        col = e.e_loc.s_col; rule; message }
    in
    let dead =
      if used_elsewhere ms refs (dotted_suffixes e.e_name)
         || used_elsewhere ms whole (enclosing_modules e.e_name)
      then []
      else [ finding Rules.Dead_unreferenced_export (dead_message e.e_name) ]
    in
    match e.e_keep with
    | None -> { empty_report with findings = dead }
    | Some reason ->
        let audit =
          { Finding.au_file = e.e_loc.s_file; au_line = e.e_loc.s_line;
            au_col = e.e_loc.s_col; au_kind = "keep";
            au_rules = [ Rules.name Rules.Dead_unreferenced_export ];
            au_reason = reason; au_used = not (List.is_empty dead) }
        in
        if Option.is_some reason then
          { empty_report with suppressed = dead; audit = [ audit ] }
        else
          { empty_report with
            findings =
              finding Rules.Lint_unknown_allow
                "[@@histolint.keep] is missing its mandatory reason string"
              :: dead;
            audit = [ audit ] }
  in
  List.fold_left
    (fun acc (ms : Summary.module_summary) ->
      if subject ms then
        List.fold_left (fun acc e -> merge acc (check ms e)) acc ms.m_exports
      else acc)
    empty_report summaries

(* --- recursive scan ----------------------------------------------------- *)

let rec collect_cmts acc path =
  if Sys.file_exists path then
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc e -> collect_cmts acc (Filename.concat path e))
           acc
    else if Filename.check_suffix path ".cmt" then path :: acc
    else acc
  else acc

let finalize report =
  {
    report with
    findings = List.sort_uniq Finding.compare report.findings;
    suppressed = List.sort_uniq Finding.compare report.suppressed;
    audit = List.sort_uniq Finding.audit_compare report.audit;
  }

let scan_units config units =
  let summaries = List.map (fun u -> (u, summarize u)) units in
  let table = Summary.build_table (List.map snd summaries) in
  finalize
    (merge
       (List.fold_left
          (fun acc (u, msum) -> merge acc (scan_unit config table u msum))
          empty_report summaries)
       (dead_exports config (List.map snd summaries)))

let scan_paths config paths =
  let cmts = List.fold_left collect_cmts [] paths |> List.sort String.compare in
  scan_units config (List.filter_map load_unit cmts)


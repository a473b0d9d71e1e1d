(* The histolint engine: one walk per unit, then checks over its records.

   Each compilation unit's typedtree is walked once (Summary.of_structure)
   into records: effect frames, pool sites, alloc_ok markers, identifier
   uses, allow ranges, module-level lazies, references.  Every rule is a
   check over those records — the per-identifier rules and the
   toplevel-lazy rule here, the race pass (race.ml) and the hot-path
   allocation pass (alloc.ml) against the cross-module table, and the
   dead-export pass over every unit's references — all feeding the same
   suppression machinery and audit trail. *)

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

(* --- the checks over one unit's records ---------------------------------- *)

type ctx = {
  scope : Rules.scope;
  table : Summary.table;
  mutable raw : (Finding.t * int) list;  (* finding, char offset *)
  mutable pre_suppressed : Finding.t list;  (* suppressed by [@disjoint] *)
  mutable audits : Finding.audit list;
}

(* A finding at [s], with the char offset allows are matched against. *)
let finding_at (s : Summary.sloc) rule message =
  ( { Finding.file = s.s_file; line = s.s_line; col = s.s_col; rule; message },
    s.s_cnum )

let add_finding ctx rule s message =
  if Rules.applies rule ctx.scope then
    ctx.raw <- finding_at s rule message :: ctx.raw

let audited_scope ctx =
  match ctx.scope with
  | Rules.Lib | Rules.Lib_parallel | Rules.Bin -> true
  | Rules.Test | Rules.Bench | Rules.Other -> false

let add_audit ctx (s : Summary.sloc) kind rules reason used =
  if audited_scope ctx then
    ctx.audits <-
      { Finding.au_file = s.s_file; au_line = s.s_line; au_col = s.s_col;
        au_kind = kind; au_rules = rules; au_reason = reason; au_used = used }
      :: ctx.audits

let check_use ctx (u : Summary.use) =
  let id = u.u_name and add rule = add_finding ctx rule u.u_loc in
  if String.starts_with ~prefix:"Random." id then
    add Rules.Det_stdlib_random
      (Printf.sprintf
         "`%s`: randomness must flow through Randkit (lib/rng) so trial \
          streams stay seedable and splittable"
         id)
  else if List.exists (String.equal id) unordered_hashtbl_ops then
    add Rules.Det_hashtbl_order
      (Printf.sprintf
         "`%s` iterates in hash-bucket order; sort the keys or use an array"
         id)
  else if List.exists (String.equal id) wallclock_ops then
    add Rules.Det_wallclock
      (Printf.sprintf "`%s` reads the wall clock; timing belongs in bench/" id)
  else if String.equal id "Domain.spawn" then
    add Rules.Par_raw_domain
      "`Domain.spawn` outside lib/parallel bypasses Parkit.Pool and its \
       pre-split RNG discipline"
  else if List.exists (String.equal id) poly_compare_ops then
    match u.u_arg with
    | Summary.At_float at ->
        add Rules.Float_poly_compare
          (Printf.sprintf
             "polymorphic `%s` instantiated at %s: NaN-hostile and boxes on \
              hot paths; use the Float module's monomorphic equivalent"
             id at)
    | Summary.At_structural at ->
        add Rules.Poly_compare_structural
          (Printf.sprintf
             "polymorphic `%s` instantiated at a non-immediate type (%s); \
              prefer a monomorphic compare"
             id at)
    | Summary.At_benign | Summary.At_unknown -> ()

let check_lazy ctx (name, loc) =
  add_finding ctx Rules.Par_toplevel_lazy loc
    (Printf.sprintf
       "toplevel lazy `%s`: two domains forcing it at once make one raise \
        CamlinternalLazy.Undefined; build it eagerly at module \
        initialisation"
       name)

let unknown_rule r =
  (not (String.equal r "*")) && Option.is_none (Rules.of_name r)

(* A rule id an allow names must exist: a typo would silently suppress
   nothing, or rot after a rename. *)
let validate_allow ctx (a : Summary.allow) =
  List.iter
    (fun r ->
      if unknown_rule r then
        add_finding ctx Rules.Lint_unknown_allow a.al_loc
          (Printf.sprintf
             "[@histolint.allow] names unknown rule id `%s` (see histolint \
              --rules)"
             r))
    a.al_rules

let missing_reason ctx loc attr =
  add_finding ctx Rules.Lint_unknown_allow loc
    (Printf.sprintf "[%s] is missing its mandatory reason string" attr)

let handle_race_verdict ctx (v : Race.verdict) =
  let findings =
    List.map
      (fun (s : Race.site) ->
        finding_at s.rf_loc Rules.Par_shared_mutable s.rf_msg)
      v.sites
  in
  match v.disjoint with
  | None -> ctx.raw <- List.rev_append findings ctx.raw
  | Some (d, reason) -> (
      add_audit ctx d "disjoint" [ Rules.name Rules.Par_shared_mutable ] reason
        (not (List.is_empty findings));
      match reason with
      | Some _ -> ctx.pre_suppressed <- List.map fst findings @ ctx.pre_suppressed
      | None ->
          (* reason missing: the suppression is void and itself a finding *)
          missing_reason ctx d "@histolint.disjoint";
          ctx.raw <- List.rev_append findings ctx.raw)

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
        add_audit ctx mk.mk_loc "alloc_ok" [ Rules.name Rules.Hot_alloc ]
          mk.mk_reason (mk.mk_hits > 0);
        if Option.is_none mk.mk_reason then
          missing_reason ctx mk.mk_loc "@histolint.alloc_ok")
      msum.m_markers
  end

let covers (a : Summary.allow) (finding, cnum) =
  String.equal a.al_loc.s_file finding.Finding.file
  && cnum >= a.al_from && cnum <= a.al_to
  && List.exists
       (fun r ->
         String.equal r (Rules.name finding.Finding.rule) || String.equal r "*")
       a.al_rules

let scan_unit ~lib_prefixes table (ms : Summary.module_summary) =
  let ctx =
    {
      scope = Rules.scope_of_path ~lib_prefixes ms.m_source;
      table;
      raw = [];
      pre_suppressed = [];
      audits = [];
    }
  in
  List.iter (check_use ctx) ms.m_uses;
  List.iter (check_lazy ctx) ms.m_lazies;
  List.iter (validate_allow ctx) ms.m_allows;
  run_race_pass ctx ms;
  run_alloc_pass ctx ms;
  let suppressed, live =
    List.partition
      (fun fc -> List.exists (fun a -> covers a fc) ms.m_allows)
      ctx.raw
  in
  List.iter
    (fun (a : Summary.allow) ->
      add_audit ctx a.al_loc "allow" a.al_rules None
        (List.exists (covers a) suppressed))
    ms.m_allows;
  {
    findings = List.map fst live;
    suppressed = List.map fst suppressed @ ctx.pre_suppressed;
    audit = ctx.audits;
    units = 1;
  }

(* A suppression that covers nothing is itself a finding, unless it is
   one already (an unknown rule id, a missing reason).  Audits exist only
   where lint/unknown-allow applies. *)
let unused_suppressions audits =
  List.filter_map
    (fun (a : Finding.audit) ->
      let void =
        match a.au_kind with
        | "allow" -> List.exists unknown_rule a.au_rules
        | _ -> Option.is_none a.au_reason
      in
      if a.au_used || void then None
      else
        Some
          { Finding.file = a.au_file; line = a.au_line; col = a.au_col;
            rule = Rules.Lint_unknown_allow;
            message =
              Printf.sprintf "[%shistolint.%s] suppresses nothing; delete it"
                (if String.equal a.au_kind "keep" then "@@" else "@")
                a.au_kind })
    audits

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
let dead_exports ~lib_prefixes (summaries : Summary.module_summary list) =
  let refs = Hashtbl.create 4096 and whole = Hashtbl.create 64 in
  List.iter
    (fun (ms : Summary.module_summary) ->
      if Rules.is_production ~lib_prefixes ms.m_source then begin
        List.filter_map
          (fun (u : Summary.use) -> if u.u_local then None else Some u.u_name)
          ms.m_uses
        |> List.sort_uniq String.compare
        |> List.iter (fun r -> Hashtbl.add refs r ms.m_name);
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
      (Rules.scope_of_path ~lib_prefixes ms.m_source)
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

(* --- loading and the scan ------------------------------------------------ *)

(* Summarize one [.cmt] with its sibling [.cmti]; the typedtree is
   dropped once walked. *)
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
            (Summary.of_structure ~modname:cmt.Cmt_format.cmt_modname
               ~source:(Summary.normalize_source source) ?intf structure)
      | _ -> None)

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

(* Audits sorted, one per site and kind ([Finding.audit_compare] reads
   no other field): the first the checks produced. *)
let sort_audits l =
  List.fold_left
    (fun acc x ->
      match acc with
      | y :: _ when Finding.audit_compare x y = 0 -> acc
      | _ -> x :: acc)
    [] (List.stable_sort Finding.audit_compare l)
  |> List.rev

let scan_paths ~lib_prefixes paths =
  let cmts = List.fold_left collect_cmts [] paths |> List.sort String.compare in
  let summaries = List.filter_map load_unit cmts in
  let table = Summary.build_table summaries in
  let r =
    List.fold_left
      (fun acc ms -> merge acc (scan_unit ~lib_prefixes table ms))
      (dead_exports ~lib_prefixes summaries)
      summaries
  in
  {
    r with
    findings =
      List.sort_uniq Finding.compare (unused_suppressions r.audit @ r.findings);
    suppressed = List.sort_uniq Finding.compare r.suppressed;
    audit = sort_audits r.audit;
  }

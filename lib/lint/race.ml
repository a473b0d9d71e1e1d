(* The domain-safety pass: closures handed to Parkit.Pool (or
   Domain.spawn) run concurrently with their siblings on other
   domains, so any mutable location they reach that is *not* private
   to the task is a data race — exactly the nondeterminism the
   bit-identical replay gates exist to rule out.

   The summary walk has already recorded, for every task, each access
   with its root as the task sees it, and each call with its argument
   roots.  For each pool call this pass reads them:

   - roots that are the task's parameters or locals are safe (the pool
     hands each task its own value);
   - indexed stores `arr.(i) <- v` whose index mentions a task
     parameter are the sanctioned disjoint-slot pattern (Pool's join is
     the happens-before edge that publishes them);
   - writes or [!]-derefs rooted in captured/module-level state are
     flagged, including interprocedurally: calls into summarized
     functions are checked for transitive module-global access and for
     mutating an argument the task passes from shared state;
   - local helpers the task calls or names are checked the same way
     (their parameters are private to them);
   - everything else — notably captured *function* values like the
     trial body in [Harness.run_trials] — is assumed safe.

   An audited [@histolint.disjoint "reason"] on the pool application
   turns the site's findings into suppressed audit entries. *)

type site = { rf_loc : Summary.sloc; rf_msg : string }

type verdict = {
  sites : site list;
  disjoint : (Summary.sloc * string option) option;
}

(* How a task names a root it shares with its siblings. *)
let shared_name : Summary.root -> string option = function
  | Summary.R_captured id ->
      Some
        (Printf.sprintf "`%s` (captured from the enclosing scope)"
           (Ident.name id))
  | Summary.R_global p -> Some (Printf.sprintf "module-level `%s`" p)
  | Summary.R_param _ | Summary.R_local | Summary.R_opaque -> None

let op_desc = function
  | Summary.Mutate m | Summary.Deref m -> Printf.sprintf "`%s`" m
  | Summary.Write_field l -> Printf.sprintf "mutable field `%s` write" l

let check_task ~table (ms : Summary.module_summary) task =
  let sites = ref [] in
  let add rf_loc rf_msg = sites := { rf_loc; rf_msg } :: !sites in
  (* A summarized callee is hazardous if it can touch module-level
     mutable state (writes, or [!]-style reads — plain array/field
     reads of shared immutable-usage tables are not recorded). *)
  let callee_globals loc callee =
    List.iter
      (fun (x : Summary.access) ->
        match x.x_root with
        | Summary.R_global path ->
            let verb =
              match x.x_op with Summary.Deref _ -> "reads" | _ -> "writes"
            in
            add loc
              (Printf.sprintf
                 "call to `%s` %s module-level mutable `%s` (%s at %s:%d); \
                  sibling tasks race on it"
                 callee verb path (op_desc x.x_op) x.x_loc.s_file
                 x.x_loc.s_line)
        | _ -> ())
      (Summary.reaches_globals table callee)
  in
  let walked = ref [] in
  (* [slot]: the parameters whose slots the frame owns — the task's
     own, never a helper's. *)
  let rec frame ~slot (f : Summary.func_summary) =
    List.iter
      (fun (x : Summary.access) ->
        match (shared_name x.x_root, x.x_op) with
        | None, _ -> ()
        | Some who, Summary.Write_field l ->
            add x.x_loc
              (Printf.sprintf
                 "task closure writes mutable field `%s` of %s; sibling \
                  tasks on other domains share it"
                 l who)
        | Some who, Summary.Deref _ ->
            add x.x_loc
              (Printf.sprintf
                 "task closure reads shared mutable %s; a sibling's write \
                  would race"
                 who)
        | Some who, Summary.Mutate m ->
            if not (List.exists (fun id -> List.exists (Ident.same id) slot)
                      x.x_slot)
            then
              add x.x_loc
                (Printf.sprintf
                   "task closure mutates %s via `%s`; sibling tasks on other \
                    domains share it (index a result slot by the task \
                    parameter, or audit with [@histolint.disjoint])"
                   who m))
      f.f_access;
    List.iter
      (fun (c : Summary.call_site) ->
        if c.c_local then begin
          if not (List.mem c.c_callee !walked) then begin
            walked := c.c_callee :: !walked;
            Option.iter (frame ~slot:[]) (Hashtbl.find_opt ms.m_locals c.c_callee)
          end
        end
        else begin
          callee_globals c.c_loc c.c_callee;
          (* shared arguments passed to a callee that mutates them *)
          let mutated = Summary.mutates_params table c.c_callee in
          List.iteri
            (fun pos (a : Summary.arg) ->
              match shared_name a.ar_root with
              | Some who when List.mem pos mutated ->
                  add a.ar_loc
                    (Printf.sprintf
                       "`%s` mutates its argument %d, and the task closure \
                        passes %s; sibling tasks race on it"
                       c.c_callee pos who)
              | _ -> ())
            c.c_args
        end)
      f.f_calls
  in
  (match task with
  | Summary.T_frame f -> frame ~slot:f.f_params f
  | Summary.T_named (name, loc) -> callee_globals loc name);
  List.rev !sites

let check_module ~table (ms : Summary.module_summary) =
  List.map
    (fun (p : Summary.pool_site) ->
      {
        sites = List.concat_map (check_task ~table ms) p.p_tasks;
        disjoint = Option.map (fun reason -> (p.p_loc, reason)) p.p_disjoint;
      })
    ms.m_pools

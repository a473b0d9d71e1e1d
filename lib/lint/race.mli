(** The domain-safety pass ([par/shared-mutable-capture]).

    Analyzes every function-typed argument of a [Parkit.Pool.map/init]
    (or [Domain.spawn]) application: mutable locations the
    task closure reaches that are not private to the task — captured
    refs/arrays/Bytes/Buffer/Hashtbl, mutable record fields,
    module-level state, including through helper calls resolved via
    the {!Summary} table — are reported, unless accessed through the
    index-disjoint slot pattern ([arr.(i) <- v] with [i] mentioning a
    closure parameter). *)

type site = { rf_loc : Location.t; rf_msg : string }

type verdict = {
  sites : site list;  (** hazards found at this pool call, in source order *)
  disjoint : (Location.t * string option) option;
      (** a [\@histolint.disjoint] on the application: its location
          and reason ([None] = reason missing, which the engine turns
          into a [lint/unknown-allow] finding) *)
}

val check_apply :
  table:Summary.table ->
  modname:string ->
  toplevel:(string, unit) Hashtbl.t ->
  local_fns:(Ident.t * Typedtree.expression) list ->
  Typedtree.expression ->
  verdict option
(** [None] when the expression is not a pool-entrypoint application.
    [toplevel] holds the ident stamps of the module's own top-level
    bindings (so a bare [Pident] can be told apart from a captured
    local); [local_fns] maps [let]-bound function idents seen so far
    to their defining expressions, letting the pass walk a task body
    passed by name. *)

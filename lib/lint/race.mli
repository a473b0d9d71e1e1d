(** The domain-safety pass ([par/shared-mutable-capture]): a check over
    the {!Summary} records, as {!Alloc} is for [hot/alloc].

    Every task of a [Parkit.Pool.map/init] (or [Domain.spawn]) call —
    a closure, or a local function passed by name — is checked for the
    mutable locations it reaches that are not private to it: captured
    refs/arrays/Bytes/Buffer/Hashtbl, mutable record fields,
    module-level state, including through local helpers it calls and
    through module-level callees resolved via the summary table.  An
    indexed store whose index mentions the task's own parameter
    ([arr.(i) <- v]) is the sanctioned disjoint-slot pattern and is not
    reported.  A module-level function passed as the task is checked
    for the module-level state it reaches. *)

type site = { rf_loc : Summary.sloc; rf_msg : string }

type verdict = {
  sites : site list;  (** hazards found at this pool call, in source order *)
  disjoint : (Summary.sloc * string option) option;
      (** a [\@histolint.disjoint] on the application: its location
          and reason ([None] = reason missing, which the engine turns
          into a [lint/unknown-allow] finding) *)
}

val check_module : table:Summary.table -> Summary.module_summary -> verdict list
(** One verdict per pool call of the unit. *)

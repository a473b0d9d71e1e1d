(* Exports another fixture (dead_user.ml) reaches only indirectly: one
   through [open], one through a module alias.  Neither is a
   dead/unreferenced-export finding. *)

val through_open : int -> int
val through_alias : int -> int

(* Passed whole to a functor in dead_user.ml, which uses all of its
   exports: not a dead/unreferenced-export finding. *)

val whole : int

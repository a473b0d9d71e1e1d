(* dead/unreferenced-export fixtures: [unused] is a finding (its own
   module's use does not count), [kept] is audited, and [kept_bare]'s
   keep is missing its reason. *)

val unused : int -> int
val twice : int -> int

val kept : int -> int
[@@histolint.keep "fixture: an audited export nothing references"]

val kept_bare : int -> int [@@histolint.keep]

(* A keep on an export another production unit references: it
   suppresses nothing (see unused_suppressions.ml). *)

val used : int -> int
[@@histolint.keep "fixture: referenced, so the keep covers nothing"]

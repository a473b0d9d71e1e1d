(* References the dead/unreferenced-export fixtures the indirect ways. *)
open Reached

let a = through_open 1

module R = Reached

let b = R.through_alias 2

module Apply (M : sig
  val whole : int
end) =
struct
  let v = M.whole
end

module Applied = Apply (Functor_arg)

let c = Dead_export.twice Applied.v

(* float/poly-compare through a module alias: [S.compare] is the
   polymorphic [compare], here instantiated at float. *)

module S = Stdlib

let order (a : float) b = S.compare a b

(* An error path is still walked for the per-identifier rules: the draw
   inside [invalid_arg]'s argument is a det/stdlib-random finding (made
   through a [let module] alias), while hot/alloc exempts the subtree:
   its [Printf.sprintf] allocates only on the way out. *)

let[@histolint.hot] checked n =
  let module R = Random in
  if n < 0 then invalid_arg (Printf.sprintf "bad %d (roll %d)" n (R.int 6));
  n

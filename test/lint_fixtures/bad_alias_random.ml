(* det/stdlib-random through a [let module] alias: [R.int] is
   [Random.int]. *)

let roll () =
  let module R = Random in
  R.int 6

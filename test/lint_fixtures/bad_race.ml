(* par/shared-mutable-capture: the task closure mutates a ref captured
   from the enclosing scope — sibling pool tasks race on it.  This is
   the exact shape the acceptance gate injects: a shared accumulator
   smuggled into a [Parkit.Pool.map] body. *)

let sum pool xs =
  let acc = ref 0 in
  Parkit.Pool.map pool (fun x -> acc := x) xs |> ignore;
  !acc

(* par/shared-mutable-capture through a module alias: [P.map] is
   [Parkit.Pool.map], so its closure is a task and its captured
   increment races. *)

module P = Parkit.Pool

let count pool xs =
  let hits = ref 0 in
  P.map pool (fun x -> incr hits; x) xs |> ignore;
  !hits

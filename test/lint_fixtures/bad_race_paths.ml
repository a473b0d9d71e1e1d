(* par/shared-mutable-capture along the paths the other race fixtures
   leave out: a task passed by name as a local function, a task closure
   calling a local helper, a module-level function passed as the task,
   a write to a mutable field of a captured record, and a pool call
   inside a [struct] submodule whose helper bumps a ref defined in that
   submodule (module-level state, not a capture). *)

let by_name pool xs =
  let last = ref 0 in
  let task x = last := x in
  Parkit.Pool.map pool task xs |> ignore;
  !last

let via_helper pool xs =
  let seen = ref 0 in
  let note () = incr seen in
  Parkit.Pool.map pool (fun _x -> note ()) xs |> ignore;
  !seen

let named pool xs = Parkit.Pool.map pool Race_helper.record xs

type tally = { mutable total : int }

let field pool xs =
  let t = { total = 0 } in
  Parkit.Pool.map pool (fun x -> t.total <- x) xs |> ignore;
  t.total

module Sub = struct
  let counter = ref 0
  let bump () = incr counter
  let run pool xs = Parkit.Pool.map pool (fun _x -> bump ()) xs
end

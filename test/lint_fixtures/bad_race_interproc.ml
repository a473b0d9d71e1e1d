(* par/shared-mutable-capture through the summary table: the task body
   itself contains no write — the hazard is one call deep.  [bump]
   mutates its parameter (and the closure passes a captured ref);
   [record] writes module-level state. *)

let count pool xs =
  let hits = ref 0 in
  Parkit.Pool.map pool (fun _x -> Race_helper.bump hits) xs |> ignore;
  !hits

let log_all pool xs = Parkit.Pool.map pool (fun _x -> Race_helper.record ()) xs

(* A genuine shared-write hazard, audited with [@histolint.disjoint]:
   must be absent from the findings, present in the suppressed list, and
   carried in the audit trail with its reason. *)

let last pool xs =
  let acc = ref 0 in
  (Parkit.Pool.map
     pool
     (fun x -> acc := x)
     xs
   [@histolint.disjoint
     "fixture: deliberately audited shared write so the golden test \
      sees a suppressed site and its audit entry"])
  |> ignore;
  !acc

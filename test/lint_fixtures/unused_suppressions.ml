(* lint/unknown-allow for suppressions that suppress nothing: each form
   is well formed (a known rule id, a reason) but covers no finding, so
   each is a finding of its own.  The keep sits on [Unused_keep.used],
   which this unit references. *)

let clean () = 1 + 1 [@@histolint.allow "det/stdlib-random"]

let shared_nothing pool xs =
  (Parkit.Pool.map pool (fun x -> x + 1) xs
   [@histolint.disjoint "fixture: the tasks share nothing"])

let[@histolint.hot] same (n : int) =
  (n [@histolint.alloc_ok "fixture: nothing here allocates"])

let kept = Unused_keep.used 1

(* Adversarial overlapping-slots case: the write [out.(j) <- ...] looks
   like the disjoint-slot pattern, but [j] comes from a captured counter
   that every task bumps — the slots are claimed racily, so both the
   counter accesses and the store must be flagged.  The exemption only
   covers indices that mention the task's own parameter. *)

let scatter pool (out : int array) (xs : int array) =
  let next = ref 0 in
  Parkit.Pool.map pool
    (fun x ->
      let j = !next in
      incr next;
      out.(j) <- x)
    xs
  |> ignore

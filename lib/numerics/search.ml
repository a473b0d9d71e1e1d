let doubling_first_true ~start ~limit pred =
  if start <= 0 then invalid_arg "Search.doubling_first_true: start <= 0";
  let rec grow x =
    if x >= limit then if pred limit then Some limit else None
    else if pred x then Some x
    else grow (min limit (2 * x))
  in
  match grow start with
  | None -> None
  | Some hit ->
      (* Bisect below [hit] without re-evaluating [hit] itself: with a
         stochastic predicate (every tester probe is one), re-rolling the
         known-true endpoint could spuriously turn a successful search into
         a failure. *)
      let lo = ref (if hit = start then 1 else (hit / 2) + 1) in
      let hi = ref hit in
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo) / 2) in
        if pred mid then hi := mid else lo := mid + 1
      done;
      Some !hi

let lower_bound a x =
  (* First index i with a.(i) >= x, or length a. *)
  let n = Array.length a in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_int (a : int array) x =
  let n = Array.length a in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

type t = { lo : int; hi : int }

let make ~lo ~hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let lo t = t.lo
let hi t = t.hi
let length t = t.hi - t.lo
let is_empty t = t.hi = t.lo
let mem t i = t.lo <= i && i < t.hi
let is_singleton t = length t = 1

let equal a b = a.lo = b.lo && a.hi = b.hi
let contains ~outer ~inner = outer.lo <= inner.lo && inner.hi <= outer.hi

let intersect a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo >= hi then None else Some { lo; hi }

let disjoint a b = Option.is_none (intersect a b)
let adjacent a b = a.hi = b.lo || b.hi = a.lo

let union_adjacent a b =
  if a.hi = b.lo then { lo = a.lo; hi = b.hi }
  else if b.hi = a.lo then { lo = b.lo; hi = a.hi }
  else invalid_arg "Interval.union_adjacent: intervals not adjacent"

let split_at t i =
  if not (mem t i) || i = t.lo then
    invalid_arg "Interval.split_at: split point must be interior";
  ({ lo = t.lo; hi = i }, { lo = i; hi = t.hi })

let to_list t = List.init (length t) (fun i -> t.lo + i)
let fold f init t =
  let acc = ref init in
  for i = t.lo to t.hi - 1 do
    acc := f !acc i
  done;
  !acc

let iter f t =
  for i = t.lo to t.hi - 1 do
    f i
  done

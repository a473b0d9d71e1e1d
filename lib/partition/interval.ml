type t = { lo : int; hi : int }

let make ~lo ~hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let empty = { lo = 0; hi = 0 }
let lo t = t.lo
let hi t = t.hi
let length t = t.hi - t.lo
let is_singleton t = length t = 1

let intersect a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo >= hi then None else Some { lo; hi }

let iter f t =
  for i = t.lo to t.hi - 1 do
    f i
  done

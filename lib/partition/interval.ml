(* One packed int, [lo lsl 31 lor hi]: an immediate, so a cell array is
   an int array that the GC never scans, and a cell costs no allocation.
   With [lo] in the high bits the int order is the lexicographic order
   on (lo, hi), the order the record had under polymorphic [compare]. *)
type t = int

let bits = 31
let bound_mask = (1 lsl bits) - 1
let pack lo hi = (lo lsl bits) lor hi

let make ~lo ~hi =
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  if lo < 0 || hi > bound_mask then
    invalid_arg "Interval.make: bounds outside [0, 2^31)";
  pack lo hi

let lo t = t lsr bits
let hi t = t land bound_mask
let length t = hi t - lo t
let is_singleton t = length t = 1

let intersect a b =
  let lo = max (lo a) (lo b) and hi = min (hi a) (hi b) in
  if lo >= hi then None else Some (pack lo hi)

let iter f t =
  for i = lo t to hi t - 1 do
    f i
  done

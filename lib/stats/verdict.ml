type t = Accept | Reject

let to_string = function Accept -> "accept" | Reject -> "reject"
let pp ppf v = Format.pp_print_string ppf (to_string v)
let equal a b =
  match (a, b) with Accept, Accept | Reject, Reject -> true | _ -> false

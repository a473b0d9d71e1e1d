(* Deliberate par/toplevel-lazy violations: module-level suspensions that
   two domains may force at once.  A local lazy is fine. *)

let table = lazy (Array.init 16 float_of_int)
let from_fun = Lazy.from_fun (fun () -> 42)

module Sub = struct
  let nested = lazy "nested"
end

let local () =
  let l = lazy 3 in
  Lazy.force l + Lazy.force from_fun + int_of_float (Lazy.force table).(1)
  + String.length (Lazy.force Sub.nested)

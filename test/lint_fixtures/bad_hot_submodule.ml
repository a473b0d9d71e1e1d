(* hot/alloc inside a plain [struct] submodule: its hot functions are
   named by their full path, and a bare call to a value of the enclosing
   module resolves to that value's summary. *)

let dup x = [ x; x ]

module Inner = struct
  let[@histolint.hot] pair x y = (x, y)
  let[@histolint.hot] twice x = dup x
end

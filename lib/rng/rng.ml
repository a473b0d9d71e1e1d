type t = Xoshiro.t

let create ~seed = Xoshiro.of_seed (Int64.of_int seed)
let copy = Xoshiro.copy

let split t =
  let child = Xoshiro.copy t in
  Xoshiro.jump child;
  (* Also step the parent so repeated splits give distinct children. *)
  ignore (Xoshiro.next t);
  child

let bits64 = Xoshiro.next

let[@inline] [@histolint.hot] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits (no modulo bias) — performed
     inside Xoshiro so no boxed int64 crosses a function boundary. *)
  if bound = 1 then 0 else Xoshiro.next_below t bound

(* Under dune's dev profile (-opaque) a [float] call from another module
   returns a boxed float, 2 minor words; this int crosses unboxed. *)
let[@inline] [@histolint.hot] bits53 t = Xoshiro.next_top53 t

let[@inline] [@histolint.hot] float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 uniform mantissa bits -> uniform in [0, 1).  [bits53 t] is below
     2^53, so [float_of_int] of it equals [Int64.to_float] of the
     historical 64-bit draw's top bits — values bit-identical. *)
  float_of_int (bits53 t) *. (1. /. 9007199254740992.) *. bound

let bool t = Int64.logand (Xoshiro.next t) 1L = 1L

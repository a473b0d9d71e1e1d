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

let[@inline] [@histolint.hot] float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  (* 53 uniform mantissa bits -> uniform in [0, 1).  [next_top53 t] is
     below 2^53, so [float_of_int] of it equals [Int64.to_float] of the
     historical 64-bit draw's top bits — values bit-identical.  The
     [@inline] reaches other libraries' call sites (the alias draw loop)
     only in dune's release profile: the default dev profile compiles
     with -opaque, so there each call from another library returns a
     boxed float, 2 minor words. *)
  float_of_int (Xoshiro.next_top53 t) *. (1. /. 9007199254740992.) *. bound

let unit_open t =
  (* Uniform in (0, 1): resample the measure-zero endpoint, which some
     samplers (log of it) cannot accept. *)
  let rec draw () =
    let u = float t 1. in
    if u > 0. then u else draw ()
  in
  draw ()

let bool t = Int64.logand (Xoshiro.next t) 1L = 1L

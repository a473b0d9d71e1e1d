(** The Neumaier run one element at a time: [count] successive
    [Kahan.add] calls, O([count]).  This is the loop
    {!Numkit.Kahan.add_run} fast-forwards; the two must leave the
    accumulator's sum and compensation bitwise equal (QCheck-pinned in
    the test suite).  Cross-checking only. *)

val add_run : Numkit.Kahan.t -> float -> int -> unit
(** [add_run t x count] calls [Kahan.add t x] [count] times;
    [count <= 0] adds nothing. *)

(* CLOCK_MONOTONIC in nanoseconds.  The external returns an unboxed int64,
   so a reading allocates nothing, and timing a call does not move the
   minor-word counts the trace reports next to it. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns /. 1e9

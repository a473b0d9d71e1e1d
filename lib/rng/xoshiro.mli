(** Xoshiro256** — the workhorse generator.  Fast (a handful of 64-bit ops
    per draw) and passes BigCrush. *)

type t

val of_seed : int64 -> t
(** State expanded from a single seed via SplitMix64. *)

val next : t -> int64
(** Next 64 pseudo-random bits. *)

val next_top53 : t -> int
(** The top 53 bits of one [next] step, as a native int — the mantissa
    draw behind uniform floats.  Lives here (with [next]'s body repeated
    inside) so no boxed int64 crosses a function boundary on the hot
    path; consumes exactly one state step. *)

val next_below : t -> int -> int
(** Uniform on [0, bound) for [bound >= 2], rejection-sampled on the top
    63 bits of [next] steps (no modulo bias).  Same decisions and values
    as the historical [Rng.int] loop, allocation-free for the same
    reason as {!next_top53}. *)

val copy : t -> t
(** Independent copy of the current state (the two evolve separately). *)

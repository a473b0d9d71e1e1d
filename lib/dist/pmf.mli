(** Probability mass functions over the 0-indexed domain [0..n-1] — the
    Δ([n]) of the paper.  Values are validated at construction (finite,
    nonnegative, total mass 1 within 1e-9); sub-distributions never live in
    this type — restricted quantities are handled by the masked distance and
    statistic functions instead. *)

type t

val create : float array -> t
(** @raise Invalid_argument if empty, non-finite/negative entries, or total
    mass differs from 1 by more than 1e-9. *)

val of_weights : float array -> t
(** Normalize nonnegative weights. @raise Invalid_argument if all zero. *)

val size : t -> int
(** Domain size [n]. *)

val get : t -> int -> float

val to_array : t -> float array
(** Fresh copy. *)

val unsafe_array : t -> float array
(** The underlying array, NOT copied — read-only by convention; used by the
    inner loops of the statistics to avoid per-sample allocation. *)

val mass_on : t -> Interval.t -> float
(** D(I), compensated. *)

val support : t -> int list
val support_size : t -> int

val cdf : t -> float array
(** Length n+1 prefix sums; [cdf.(i)] = mass of [0..i-1]. *)

val uniform : int -> t

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

val mass_on_mask : t -> bool array -> float
[@@histolint.keep "tested only by test_distrib; no production caller"]

val support : t -> int list
val support_size : t -> int

val min_nonzero : t -> float
[@@histolint.keep "tested only by test_distrib; no production caller"]
(** Smallest positive mass ([infinity] for the all-zero edge case, which
    cannot occur in a valid pmf). *)

val cdf : t -> float array
(** Length n+1 prefix sums; [cdf.(i)] = mass of [0..i-1]. *)

val uniform : int -> t
val point_mass : n:int -> int -> t
[@@histolint.keep "tests build fixtures with it; no production caller"]

val map_weights : t -> (int -> float -> float) -> t
[@@histolint.keep "tested only by test_distrib; no production caller"]
(** Pointwise reweighting followed by normalization. *)

val equal : ?eps:float -> t -> t -> bool
[@@histolint.keep "tests compare fixtures with it; no production caller"]

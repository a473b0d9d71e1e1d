(** Probability mass functions over the 0-indexed domain [0..n-1] — the
    Δ([n]) of the paper.  Values are validated at construction (finite,
    nonnegative, total mass 1 within 1e-9); sub-distributions never live in
    this type — restricted quantities are handled by the masked distance and
    statistic functions instead. *)

type t

(** {2 Ownership}

    Both constructors take ownership of the array they are given: the
    pmf {e is} that array, not a copy of it, and {!of_weights} normalizes
    it in place.  The caller hands over a fresh array and never reads or
    writes it again — to keep a copy, pass [Array.copy w].  A pmf so
    costs exactly its n floats, and construction allocates nothing per
    element. *)

val create : float array -> t
(** Takes ownership of its argument (see above).
    @raise Invalid_argument if empty, non-finite/negative entries, or total
    mass differs from 1 by more than 1e-9. *)

val of_weights : float array -> t
(** Normalize nonnegative weights in place, taking ownership of the array
    (see above).  Each entry becomes [w.(i) /. total] for the compensated
    total.  @raise Invalid_argument if empty, any entry is non-finite or
    negative, or all are zero; the array is then left unchanged. *)

val of_pieces : Partition.t -> float array -> t
(** [of_pieces part levels]: the pmf equal to [levels.(j)] on every
    element of cell [j] of [part] — one fresh n-float array, each entry
    written once, a cell at a time, so entry i is bitwise its cell's
    level.  The levels are validated as {!create} validates entries,
    and the mass Σ level·|cell| is checked over the K cells rather than
    the n elements.  @raise Invalid_argument unless there is one finite,
    nonnegative level per cell and the mass is 1 within 1e-9. *)

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

(** Greenwald–Khanna ε-approximate quantile summary (SIGMOD 2001).

    This is the streaming substrate behind online equi-depth histogram
    maintenance — the database setting ([GGI+02, GKS06]) the paper's
    introduction motivates histogram testing with.  Space is
    O((1/ε)·log(εn)) tuples; any rank query is answered within ±εn. *)

type t

val create : eps:float -> t
(** @raise Invalid_argument unless 0 < eps < 1. *)

val insert : t -> float -> unit
(** Add one observation; amortized compression keeps the summary small. *)

val count : t -> int
[@@histolint.keep "the n of the GK invariant test_streamkit checks"]
(** Observations inserted so far. *)

val quantile : t -> float -> float
(** [quantile t q] is a value whose rank is within ±εn of q·n.
    @raise Invalid_argument when empty or q outside [0, 1]. *)

val summary_size : t -> int
(** Number of tuples currently stored. *)

val rank_bounds : t -> float -> int * int
(** [rank_bounds t x] is a pair [(rmin, rmax)] bracketing the number of
    inserted observations [<= x]: [rmin] sums the gaps of the covering
    tuples and [rmax] adds the succeeding tuple's own [g + delta]
    uncertainty (the true GK bounds, not a global band), clamped to
    [0, count].  Exact — [(0, 0)] and [(count, count)] — below the tracked
    minimum and at or above the tracked maximum. *)

val merge : t -> t -> t
(** Merge monoid ({!Numkit.Mergeable.S}, ε-bounded flavor): the summary of
    the two input streams' concatenation.  Tuple lists are interleaved by
    value and each tuple's [delta] is inflated by its successor from the
    other summary (the GK merge rule; mergeability per Agarwal et al.,
    PODS'12), then compressed against the combined band
    ⌊2ε(n_a + n_b)⌋ — so rank and quantile queries on the result keep the
    ±εn guarantee over the union, and merging with an empty summary is the
    identity.  Associative up to summary structure: any merge tree over
    the same shards yields the same guarantee, not bitwise-equal tuples.
    Neither input is mutated.
    @raise Invalid_argument if the [eps] differ. *)

val invariant_ok : t -> bool
(** Whether every interior tuple satisfies the compression invariant
    [g + delta <= max 1 (floor (2 eps n))] (the first and last tuples
    track the exact extremes and are exempt; the [max 1] covers the exact
    start-up phase n < 1/(2ε), where every gap is 1 by construction).
    Holds after every [insert], [merge] and internal compression; exposed
    for tests. *)

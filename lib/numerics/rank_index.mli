(** Segment-cost oracle: a wavelet tree over value ranks with weight and
    weight·value prefix sums.

    Built once over a fixed sequence of weighted values ([create] is
    O(K log R) time and space, R the number of distinct values), the
    index answers weighted-median and optimal-L1-cost queries for any
    contiguous position range in O(log R) — no K×K table.  It is the
    oracle behind the divide-and-conquer closest-k-histogram DP
    ({!Closest.fit_cells} in [histkit]): every segment cost the DP
    probes is

      [min_v Σ_{i ∈ [lo,hi)} w_i·|v_i − v|],

    attained at the weighted lower median (the smallest value whose
    cumulative range weight reaches half the range total — the same
    convention as {!Wmedian}).

    Ranges are half-open [\[lo, hi)] over the positions passed to
    [create], matching the repo-wide interval convention.  Queries are
    pure lookups; the structure is immutable after [create] and may be
    shared across domains. *)

type t

val create : values:float array -> weights:float array -> t
(** O(K log R) build.  @raise Invalid_argument on empty input, length
    mismatch, NaN values, or negative/NaN weights.  Zero weights are
    allowed (they never move the median and add nothing to any cost). *)

val seg_cost : t -> lo:int -> hi:int -> float
(** [seg_cost t ~lo ~hi] is [min_v Σ_{i ∈ [lo,hi)} w_i·|v_i − v|], in
    O(log R); [0.] when the range carries no weight.  @raise
    Invalid_argument unless [0 <= lo < hi <= K], K the number of
    positions indexed. *)

val seg_median : t -> lo:int -> hi:int -> float
[@@histolint.keep "[seg_cost]'s descent computes it; test_numkit pins it directly"]
(** The weighted lower median of the range's values ([nan] when the
    range carries no weight) — the value attaining {!seg_cost}. *)

val seg_weight : t -> lo:int -> hi:int -> float
[@@histolint.keep "[seg_cost] runs it; test_numkit pins it directly"]
(** Total weight on [\[lo, hi)]. *)

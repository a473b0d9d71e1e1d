(** Segment-cost oracle: a wavelet tree over value ranks with weight and
    weight·value prefix sums.

    Built over a sequence of weighted values (O(K log R) time and space,
    R the number of distinct values), the index answers weighted-median
    and optimal-L1-cost queries for any contiguous position range in
    O(log R) — no K×K table.  It is the oracle behind the
    divide-and-conquer closest-k-histogram DP ({!Closest.fit_cells} in
    [histkit]): every segment cost the DP probes is

      [min_v Σ_{i ∈ [lo,hi)} w_i·|v_i − v|],

    attained at the weighted lower median (the smallest value whose
    cumulative range weight reaches half the range total — the same
    convention as the test-only [Refkit.Wmedian]).

    Ranges are half-open [\[lo, hi)] over the positions of the last
    build, matching the repo-wide interval convention.

    The tables live in Bigarrays, outside the GC heap, and {!rebuild}
    refills them in place: they grow only when a build needs more room
    than every earlier one, and then to at least twice their size, so
    rebuilding an index of the same or a smaller size allocates nothing,
    and neither does {!seg_cost_into}.

    Lending contract: an index is single-owner mutable state.  A query
    writes its answer into the index's {!slot}, which the next query
    overwrites, and a rebuild replaces every answer the index gives, so
    an index must never be queried by code running concurrently.  The
    checking DP owns one per [Closest.scratch], itself owned by one
    trial workspace. *)

type t

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The input buffers {!rebuild} reads. *)

val empty : unit -> t
(** An index over no positions, holding no tables yet: the first
    {!rebuild} sizes them. *)

val rebuild : t -> values:floats -> weights:floats -> len:int -> unit
(** [rebuild t ~values ~weights ~len] re-indexes [t] over the first
    [len] entries of [values] and [weights], in O(K log R), reusing its
    tables when they are large enough.  The inputs are read, not kept.
    @raise Invalid_argument when [len <= 0], when either input is shorter
    than [len], or on a NaN value or a negative/NaN weight; [t] is then
    left as it was.  Zero weights are allowed (they never move the median
    and add nothing to any cost). *)

val create : values:float array -> weights:float array -> t
(** A fresh index over the given arrays: {!empty} followed by
    {!rebuild}.  @raise Invalid_argument on empty input, length mismatch,
    or what {!rebuild} rejects. *)

val slot : t -> float array
(** The one-element array {!seg_cost_into} writes its answer into,
    lent: read [.(0)] before the next query on [t]. *)

val seg_cost_into : t -> lo:int -> hi:int -> unit
(** [seg_cost_into t ~lo ~hi] sets [(slot t).(0)] to
    [min_v Σ_{i ∈ [lo,hi)} w_i·|v_i − v|], in O(log R), allocating
    nothing; [0.] when the range carries no weight.  @raise
    Invalid_argument unless [0 <= lo < hi <= K], K the number of
    positions indexed. *)

val seg_cost : t -> lo:int -> hi:int -> float
(** {!seg_cost_into}, answered as a (boxed) float. *)

val seg_median : t -> lo:int -> hi:int -> float
(** The weighted lower median of the range's values ([nan] when the
    range carries no weight) — the value attaining {!seg_cost}.  A rank
    holding both [-0.] and [0.] reports one of the two. *)

val seg_weight : t -> lo:int -> hi:int -> float
[@@histolint.keep "[seg_cost] runs it; test_numkit pins it directly"]
(** Total weight on [\[lo, hi)]. *)

(** Online equi-depth histogram maintenance over a stream of domain
    elements: bucket boundaries come from a Greenwald–Khanna sketch, bucket
    masses from exact counting.  This is the "maintain a succinct summary
    while the data flows by" use-case of approximate histogram maintenance
    ([GMP97, GGI+02]) that motivates asking, downstream, whether few bins
    are enough — which is precisely what the tester decides. *)

type t

val create : n:int -> buckets:int -> eps:float -> t
val observe : t -> int -> unit
val total : t -> int

val current_partition : t -> Partition.t
[@@histolint.keep "[current_histogram] runs it; test_streamkit pins it"]
(** Bucket boundaries at the current approximate quantiles.

    {b May have fewer than [buckets] cells.}  On skewed or
    heavily-duplicated data, adjacent quantiles land on the same domain
    element; duplicate cuts are collapsed (not silently — [cell_count] of
    the result, or {!realized_cells}, reports the realized number).
    Callers must size per-cell state off the returned partition, never
    off the requested [buckets]. *)

val realized_cells : t -> int
[@@histolint.keep "tested only by test_streamkit; no production caller"]
(** Cell count of {!current_partition} — equals [buckets] unless quantile
    cuts collapsed (always 1 before the first observation). *)

val current_histogram : t -> Khist.t
(** Equi-depth histogram of everything observed so far, over the
    *realized* partition: with collapsed cuts it has
    [realized_cells t < buckets] pieces and is still a well-formed
    histogram of total mass 1.
    @raise Invalid_argument before the first observation. *)

val merge : t -> t -> t
[@@histolint.keep "tested only by test_streamkit; no production caller"]
(** Merge monoid ({!Numkit.Mergeable.S}): exact per-element counts add
    bitwise, the boundary sketch merges via {!Gk.merge} — so merged bucket
    masses are exactly single-stream, while boundary placement keeps the
    sketch's ±εn guarantee over the union.  Identity: a same-parameter
    empty state.  Neither input is mutated.
    @raise Invalid_argument unless [n], [buckets] and [eps] agree. *)

val sketch_size : t -> int
(** Tuples held by the underlying quantile sketch. *)

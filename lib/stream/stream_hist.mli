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
    the result reports the realized number).  Callers must size per-cell
    state off the returned partition, never off the requested
    [buckets]. *)

val current_histogram : t -> Khist.t
(** Equi-depth histogram of everything observed so far, over the
    *realized* partition: with collapsed cuts it has fewer than
    [buckets] pieces and is still a well-formed histogram of total
    mass 1.
    @raise Invalid_argument before the first observation. *)

val sketch_size : t -> int
(** Tuples held by the underlying quantile sketch. *)

(** Selectivity estimation — the query-optimizer use of histograms
    ([Koo80, PIHS96]) that motivates the whole line of work: estimate the
    fraction of records a range predicate selects from the bucket summary
    alone, and measure how wrong that is against the true distribution. *)

val true_range : Pmf.t -> Interval.t -> float
[@@histolint.keep "[evaluate] runs it; test_querykit pins it directly"]
(** Exact selectivity of a range predicate. *)

val estimate_range : Khist.t -> Interval.t -> float
[@@histolint.keep "[evaluate] runs it; test_querykit pins it directly"]
(** Histogram estimate under the uniform-spread assumption. *)

val estimate_point : Khist.t -> int -> float
[@@histolint.keep "tested only by test_querykit; no production caller"]

val absolute_error : Pmf.t -> Khist.t -> Interval.t -> float
[@@histolint.keep "[evaluate] runs it; test_querykit pins it directly"]
val relative_error : Pmf.t -> Khist.t -> Interval.t -> float
[@@histolint.keep "[evaluate] runs it; test_querykit pins it directly"]

type report = {
  mean_abs : float;
  max_abs : float;
  mean_rel : float;  (** over queries with nonzero true selectivity *)
  queries : int;
}

val evaluate : Pmf.t -> Khist.t -> Interval.t list -> report

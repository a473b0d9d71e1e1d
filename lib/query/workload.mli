(** Range- and point-query workload generators for the selectivity
    experiments (E12). *)

val uniform_ranges :
  n:int -> count:int -> rng:Randkit.Rng.t -> Interval.t list
(** Endpoints uniform over the domain. *)

val fixed_width_ranges :
  n:int -> width:int -> count:int -> rng:Randkit.Rng.t -> Interval.t list
[@@histolint.keep "tested only by test_querykit; no production caller"]

val data_centered_ranges :
  pmf:Pmf.t -> width:int -> count:int -> rng:Randkit.Rng.t -> Interval.t list
(** Ranges centered on data sampled from the attribute distribution itself
    (skew-following workload). *)

val point_queries : pmf:Pmf.t -> count:int -> rng:Randkit.Rng.t -> int list
[@@histolint.keep "tested only by test_querykit; no production caller"]

val prefix_ranges : n:int -> count:int -> Interval.t list
[@@histolint.keep "tested only by test_querykit; no production caller"]
(** Deterministic [0, hi) sweeps — CDF-style queries. *)

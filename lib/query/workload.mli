(** Range-query workload generators for the selectivity experiments
    (E12). *)

val uniform_ranges :
  n:int -> count:int -> rng:Randkit.Rng.t -> Interval.t list
(** Endpoints uniform over the domain. *)

val data_centered_ranges :
  pmf:Pmf.t -> width:int -> count:int -> rng:Randkit.Rng.t -> Interval.t list
(** Ranges centered on data sampled from the attribute distribution itself
    (skew-following workload). *)

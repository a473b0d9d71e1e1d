(** Distances between distributions on the same domain.

    [tv] is the paper's dTV = ½‖·‖₁ (the testing metric); [chi2] is the
    asymmetric dχ²(a‖b) = Σ (a(i)−b(i))²/b(i) driving the ADK15 statistic;
    the [_on] / [_mask] variants are the sub-domain restrictions from
    footnote 6 used by the sieved tester. All sums are compensated. *)

val l1 : Pmf.t -> Pmf.t -> float
[@@histolint.keep "[tv] runs it; test_distrib pins it directly"]
val tv : Pmf.t -> Pmf.t -> float
val l2_sq : Pmf.t -> Pmf.t -> float
[@@histolint.keep "tested only by test_distrib; no production caller"]

val chi2 : Pmf.t -> against:Pmf.t -> float
(** dχ²(a ‖ b); [infinity] when a places mass where b has none. *)

val hellinger : Pmf.t -> Pmf.t -> float
[@@histolint.keep "tested only by test_distrib; no production caller"]

val tv_on : Interval.t -> Pmf.t -> Pmf.t -> float
[@@histolint.keep "tested only by test_distrib; no production caller"]

val tv_mask : bool array -> Pmf.t -> Pmf.t -> float
[@@histolint.keep "tested only by test_distrib; no production caller"]
(** ½ Σ_{i : mask(i)} |a(i) − b(i)| — dTV restricted to the sieved domain G. *)

val chi2_mask : bool array -> Pmf.t -> against:Pmf.t -> float

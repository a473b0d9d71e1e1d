(** Distances between distributions on the same domain.

    [tv] is the paper's dTV = ½‖·‖₁ (the testing metric); [chi2] is the
    asymmetric dχ²(a‖b) = Σ (a(i)−b(i))²/b(i) driving the ADK15 statistic;
    [chi2_mask] is its restriction to a sub-domain (footnote 6), used by
    the sieved tester. All sums are compensated. *)

val l1 : Pmf.t -> Pmf.t -> float
[@@histolint.keep "[tv] runs it; test_distrib pins it directly"]
val tv : Pmf.t -> Pmf.t -> float

val chi2 : Pmf.t -> against:Pmf.t -> float
(** dχ²(a ‖ b); [infinity] when a places mass where b has none. *)

val chi2_mask : bool array -> Pmf.t -> against:Pmf.t -> float

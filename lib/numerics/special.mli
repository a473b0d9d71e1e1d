(** Special functions needed by the samplers and statistical tests.

    Everything here is self-contained (the container has no scientific
    library); accuracies are stated per function and are orders of magnitude
    finer than the sampling noise of any experiment in this repository. *)

val pi : float
[@@histolint.keep "[log_gamma] uses it; test_numkit checks against it"]

val log_gamma : float -> float
[@@histolint.keep "[log_factorial] runs it; test_numkit pins it directly"]
(** Lanczos approximation of [log Γ(x)], absolute error ≲ 1e-13 for x > 0.
    Negative non-integer arguments are handled through the reflection
    formula. *)

val log_factorial : int -> float
(** [log n!]; table-driven for [n < 1024], [log_gamma] beyond.
    @raise Invalid_argument on negative input. *)

val log_binomial : int -> int -> float
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** [log_binomial n k] is [log (n choose k)]; [neg_infinity] outside
    [0 <= k <= n]. *)

val erf : float -> float
[@@histolint.keep "[normal_cdf] runs it; test_numkit pins it directly"]
(** Error function, absolute error ≤ 1.5e-7 (Abramowitz–Stegun 7.1.26). *)

val normal_cdf : ?mu:float -> ?sigma:float -> float -> float
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** Gaussian CDF. @raise Invalid_argument if [sigma <= 0]. *)

val normal_quantile : float -> float
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** Inverse standard-normal CDF (Acklam + one Halley refinement step,
    relative error < 1e-9). @raise Invalid_argument unless [0 < p < 1]. *)

val poisson_pmf : mean:float -> int -> float
[@@histolint.keep "the Poisson law the sampler tests check against"]

val gamma_p : float -> float -> float
(** Regularized lower incomplete gamma [P(a, x)]. *)

val poisson_cdf : mean:float -> int -> float
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** [P(Poisson(mean) <= k)]. *)

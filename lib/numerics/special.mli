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
[@@histolint.keep "[log_factorial_into] with a plain float result; the sampler and special-function tests check laws with it"]
(** [log n!]; read from a table built at module initialisation for
    [n < 1024] (so any domain may call it first), [log_gamma] beyond.
    @raise Invalid_argument on negative input. *)

val log_factorial_into : float array -> int -> unit
(** [log_factorial_into slot n] sets [slot.(0)] to [log_factorial n], bit
    for bit, allocating nothing: the answer does not cross the module
    boundary as a boxed float, as a float result would in dune's dev
    profile.  The samplers' rejection paths call it with a slot their
    domain owns.  @raise Invalid_argument on negative input. *)

val poisson_pmf : mean:float -> int -> float
[@@histolint.keep "the Poisson law the sampler tests check against"]

val gamma_p : float -> float -> float
(** Regularized lower incomplete gamma [P(a, x)]. *)

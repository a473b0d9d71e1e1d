(** Sample fingerprints and symmetric-property estimators.

    The fingerprint (how many domain elements appeared exactly j times) is
    a sufficient statistic for every symmetric property — the object at the
    heart of the [VV10] support-size lower bound that Proposition 4.2
    reduces from.  This module computes it and the classical estimators
    built on it (collision-based ℓ2 norm, Good–Turing missing mass, Chao's
    support estimate, entropy with Miller–Madow correction); the collision
    uniformity tester and the support-size experiments consume these. *)

type t

val of_counts : int array -> t
val samples : t -> int

val prevalence : t -> int -> int
[@@histolint.keep "[chao1_support_estimate] runs it; test_statkit pins it"]
(** [prevalence t j] = number of elements observed exactly j ≥ 1 times. *)

val distinct : t -> int
val singletons : t -> int
[@@histolint.keep "the estimators runs it; test_statkit pins it directly"]

val collisions : t -> int
[@@histolint.keep "[l2_norm_sq_estimate] runs it; test_statkit pins it"]
(** Σ_i C(N_i, 2). *)

val l2_norm_sq_estimate : t -> float
(** Unbiased estimate of ‖D‖₂² ([nan] below two samples). *)

val good_turing_missing_mass : t -> float
(** Estimated total mass of the unseen part of the support (F₁/m). *)

val chao1_support_estimate : t -> float
(** Chao's abundance-based support-size estimate (a lower-bound-style
    estimator; consistent when rare masses dominate). *)

val entropy_plugin : int array -> float
[@@histolint.keep "[entropy_miller_madow] runs it; test_statkit pins it"]
(** Plug-in Shannon entropy (nats) of the empirical distribution. *)

val entropy_miller_madow : int array -> float
(** Plug-in entropy with the (d−1)/(2m) Miller–Madow bias correction. *)

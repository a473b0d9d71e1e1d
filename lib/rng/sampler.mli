(** Scalar random samplers.

    The Poisson sampler is the backbone of the "Poissonization trick" the
    paper's upper bounds rely on (Section 2): instead of exactly [m] samples
    the testers draw [Poisson(m)] of them, making per-element counts
    independent. *)

val bernoulli : Rng.t -> float -> bool
[@@histolint.keep "tested only by test_randkit; no production caller"]
val exponential : Rng.t -> rate:float -> float
[@@histolint.keep "tested only by test_randkit; no production caller"]
val gaussian : Rng.t -> mu:float -> sigma:float -> float

val geometric : Rng.t -> p:float -> int
[@@histolint.keep "[poisson] runs it; test_randkit pins it directly"]
(** Number of failures before the first success (support 0, 1, 2, ...). *)

val poisson : Rng.t -> mean:float -> int
(** Knuth's method below mean 30, Hörmann's PTRS transformed rejection
    (O(1) expected) above. *)

val binomial : Rng.t -> n:int -> p:float -> int
(** O(1) expected whatever [n] and [p] are: waiting-time below the pinned
    cutoff {!binomial_btrs_cutoff} on [n·min(p, 1-p)], Hörmann's BTRS
    transformed rejection at or above it.  The cutoff is a compile-time
    constant (not host-derived), so the branch taken — and therefore the
    draw stream — is identical on every machine.  [p = 0], [p = 1] and
    [n = 0] are closed forms that consume no randomness; this is what
    lets the splitting tree skip zero-mass subtrees for free.
    @raise Invalid_argument if [n < 0] or [p] is NaN or outside [0, 1]. *)

val binomial_waiting_time : Rng.t -> n:int -> p:float -> int
[@@histolint.keep "one branch of [binomial]; test_randkit pins its law"]
(** The waiting-time branch alone (geometric jumps over failures),
    O(n·min(p, 1-p)) expected — the reference implementation [binomial]
    dispatches to below the cutoff.  Same guards and closed-form
    extremes as [binomial]. *)

val binomial_btrs : Rng.t -> n:int -> p:float -> int
[@@histolint.keep "one branch of [binomial]; test_randkit pins its law"]
(** The BTRS rejection branch alone, O(1) expected.  Statistically exact
    only in its validity regime [n·min(p, 1-p) >= binomial_btrs_cutoff];
    outside it the fitted dominating curve may fail to dominate — exposed
    separately so tests can pin each branch, not for direct use.  Same
    guards and closed-form extremes as [binomial]. *)

val binomial_btrs_cutoff : float
[@@histolint.keep "[binomial]'s dispatch point; test_randkit pins it"]
(** The pinned dispatch threshold on [n·min(p, 1-p)] (currently 10, the
    BTRS validity floor).  Part of the draw-stream contract: changing it
    changes every stream that crosses it. *)

val categorical_from_cdf : Rng.t -> float array -> int
[@@histolint.keep "tested only by test_randkit; no production caller"]
(** Draw an index given the (nondecreasing, positive-total) cumulative
    weights; O(log n) by binary search.  For bulk draws prefer
    {!Distrib.Alias}. *)

val permutation : Rng.t -> int -> int array
(** Uniform permutation of [0..n-1] (Fisher–Yates); this is the [σ ∈ S_n]
    of the support-size reduction (Section 4.2). *)

val shuffle_in_place : Rng.t -> 'a array -> unit

val sample_without_replacement : Rng.t -> n:int -> k:int -> int list
(** [k] distinct elements of [0..n-1] by Floyd's algorithm, O(k) expected. *)

val zipf_weights : n:int -> s:float -> float array
(** Unnormalized Zipf(s) weights over [n] ranks. *)

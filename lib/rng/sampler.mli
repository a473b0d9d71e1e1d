(** Scalar random samplers.

    The Poisson sampler is the backbone of the "Poissonization trick" the
    paper's upper bounds rely on (Section 2): instead of exactly [m] samples
    the testers draw [Poisson(m)] of them, making per-element counts
    independent.

    [geometric], [poisson] and the binomials are loops over unboxed
    locals that draw {!Rng.bits53}, and a PTRS or BTRS rejection path
    reads its log-factorials through a one-float slot its domain owns
    ([Numkit.Special.log_factorial_into]), so no draw allocates, in
    dune's dev profile too.  [test_randkit] pins both the draw streams
    and these costs. *)

val gaussian : Rng.t -> mu:float -> sigma:float -> float

val geometric : Rng.t -> p:float -> int
[@@histolint.keep "test_randkit pins it; [binomial]'s waiting-time branch draws its jumps the same way"]
(** Number of failures before the first success (support 0, 1, 2, ...). *)

val poisson : Rng.t -> mean:float -> int
(** Knuth's method below mean 30, Hörmann's PTRS transformed rejection
    (O(1) expected) above. *)

val binomial : Rng.t -> n:int -> p:float -> int
[@@histolint.keep "[binomial_at] with p passed as a float; test_randkit pins its streams and law"]
(** O(1) expected whatever [n] and [p] are: waiting-time below the pinned
    cutoff {!binomial_btrs_cutoff} on [n·min(p, 1-p)], Hörmann's BTRS
    transformed rejection at or above it.  The cutoff is a compile-time
    constant (not host-derived), so the branch taken — and therefore the
    draw stream — is identical on every machine.  [p = 0], [p = 1] and
    [n = 0] are closed forms that consume no randomness; this is what
    lets the splitting tree skip zero-mass subtrees for free.
    @raise Invalid_argument if [n < 0] or [p] is NaN or outside [0, 1]. *)

type probs = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val binomial_at : Rng.t -> n:int -> probs -> int -> int
(** [binomial_at rng ~n probs i] is [binomial rng ~n ~p:probs.{i}]: the
    same draw from the same stream, with p read here, so it never crosses
    a module boundary as a boxed float.  {!Distrib.Split_tree}'s fill
    hands it its split-probability table and the node index; a draw
    allocates nothing.  @raise Invalid_argument as [binomial] does, or if
    [i] is out of bounds. *)

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

val permutation : Rng.t -> int -> int array
(** Uniform permutation of [0..n-1] (Fisher–Yates); this is the [σ ∈ S_n]
    of the support-size reduction (Section 4.2). *)

val shuffle_in_place : Rng.t -> 'a array -> unit

val sample_without_replacement : Rng.t -> n:int -> k:int -> int list
(** [k] distinct elements of [0..n-1] by Floyd's algorithm, O(k) expected. *)

val zipf_weights : n:int -> s:float -> float array
(** Unnormalized Zipf(s) weights over [n] ranks. *)

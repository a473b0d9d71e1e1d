(** Vose's alias method: O(n) preprocessing, O(1) per sample.  It draws
    sample streams where a caller needs the samples themselves: the serve
    benches' request corpora, the centres of [Workload]'s query ranges and
    the streaming examples.  Algorithm 1's trials do not draw from it:
    each trial's oracle is a count vector split from a {!Split_tree}
    ([Poissonize.counts_of_tree]), and the alias-stream trial path lives
    on only as the test-only [Refkit.Stream_trials].

    A table is immutable after [of_pmf]: it can be built once per PMF and
    shared read-only, across domains too (see Parkit).  Only the
    [Randkit.Rng.t] handle passed to the draw functions is mutated, so
    concurrent draws need only distinct generators.

    The [_into] variants write into caller-supplied buffers (the per-domain
    workspaces of the trial engine) and consume the **exact same generator
    stream** as their allocating counterparts — a run is bit-identical
    whichever variant it uses.  This contract is enforced by QCheck
    properties in [test/test_distrib.ml]. *)

type t

val of_pmf : Pmf.t -> t
val size : t -> int

val draw : t -> Randkit.Rng.t -> int
(** One sample (a domain element in [0..n-1]). *)

val draw_many : t -> Randkit.Rng.t -> int -> int array
(** [m] iid samples.  Consumes the same generator stream as [m]
    successive [draw]s.  Allocates only the result array. *)

val draw_many_into : t -> Randkit.Rng.t -> out:int array -> int -> unit
(** [draw_many_into t rng ~out m] fills [out.(0) .. out.(m-1)] with [m]
    iid samples — same stream as [draw_many t rng m], zero allocation.
    Slots beyond [m] are left untouched.
    @raise Invalid_argument if [m < 0] or [Array.length out < m]. *)

val draw_counts : t -> Randkit.Rng.t -> int -> int array
(** Occurrence counts N_i of [m] iid samples (multinomial).  Same
    generator stream as [m] successive [draw]s; allocates only the
    counts array. *)

val draw_counts_into : t -> Randkit.Rng.t -> counts:int array -> int -> unit
(** [draw_counts_into t rng ~counts m] zeroes [counts] and accumulates the
    occurrence counts of [m] iid samples into it — same stream as
    [draw_counts t rng m], zero allocation.
    @raise Invalid_argument if [m < 0] or [Array.length counts <> size t]. *)

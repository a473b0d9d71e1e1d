(** Multinomial count vectors by recursive binomial splitting — trials
    without a sample stream.

    An alias table makes one draw O(1), so a trial that only ever looks at
    the occurrence-count vector still pays Θ(m) to produce it.  A split
    tree generates the count vector directly: the domain is laid out as a
    static balanced interval tree whose internal nodes carry the share
    w_left/w of their subtree's mass that lies left, and a total of [m]
    balls is pushed from the root down, each node sending
    [Binomial(c, w_left/w)] of its [c] balls into the left subtree.  The
    result is exactly multinomial([m], pmf) — the same law as
    [Alias.draw_counts], but NOT the same generator stream, so
    equivalence with the stream path is pinned distributionally (per-cell
    marginals, verdict distributions), not bit-exactly; see
    [test/test_statkit.ml] and DESIGN.md "Trials without samples".

    Cost: O(s + s·log(width/s)) binomial draws for [s] occupied leaves,
    independent of [m].  Zero-mass subtrees are skipped for free (their
    split probability is exactly 0 or 1, and those closed forms consume
    no randomness), so sparse-support histograms — K spikes in a domain
    of 2²⁰ — cost O(K log(n/K)) per trial however many samples the
    tester asked for.

    Sharing contract: identical to {!Alias} — a tree is immutable after
    [of_pmf], buildable once per PMF and shareable read-only across
    trials and domains; only the [Randkit.Rng.t] handle is mutated, so
    concurrent draws need only distinct generators. *)

type t

val of_pmf : Pmf.t -> t
(** O(n) time; one table of 2^⌈log₂ n⌉ floats (a split probability per
    internal node), allocated once outside the OCaml heap as a float64
    Bigarray, so the major GC does not size its heap against it.  On the
    heap: a 4-word record and the Bigarray's small header block — no
    other allocation. *)

val size : t -> int

val draw_counts : t -> Randkit.Rng.t -> int -> int array
(** [draw_counts t rng m] is a multinomial([m], pmf) occurrence-count
    vector of length [size t].  Allocates only the result array.
    @raise Invalid_argument if [m < 0]. *)

val draw_counts_into : t -> Randkit.Rng.t -> counts:int array -> int -> unit
(** Zeroes [counts] and fills it with a multinomial([m], pmf) draw —
    same stream as [draw_counts t rng m].  Allocates no array; each
    binomial draw allocates a few words (the split probability boxed
    for the call into [Randkit.Sampler], and boxed log-factorials on a
    BTRS rejection path), ~5.5 words per internal node at n = 2^16.
    @raise Invalid_argument if [m < 0] or [Array.length counts <> size t]. *)

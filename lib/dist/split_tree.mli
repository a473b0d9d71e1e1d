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
    tester asked for.  The tree itself costs the pieces too: only the
    splits that are not exactly ½ are stored (see {!of_pmf}).

    Sharing contract: identical to {!Alias} — a tree is immutable after
    [of_pmf], buildable once per PMF and shareable read-only across
    trials and domains; only the [Randkit.Rng.t] handle is mutated, so
    concurrent draws need only distinct generators. *)

type t

val of_pmf : Pmf.t -> t
(** Reads the pmf once and stores a split probability only for the
    internal nodes whose leaf range straddles a change of value (the
    padding boundary at n counts when the last entry is nonzero); every
    other node splits at exactly ½, read from one shared slot, so draws
    are those of a table with one split per node, bit for bit.  A pmf
    with B changes of value stores at most B·⌈log₂ n⌉ floats, plus an
    index of one int per 32 nodes (2^⌈log₂ n⌉ / 32 ints); O(n + B log n)
    time.  When more than half the nodes straddle a change, all
    2^⌈log₂ n⌉ are stored at their heap index and there is no index.
    Both arrays are Bigarrays outside the OCaml heap, so the major GC
    does not size its heap against them.  On the heap: the record, the
    Bigarrays' small header blocks and a few words of scratch. *)

val size : t -> int

val stored : t -> int
(** The internal nodes with a split of their own: at most
    B·⌈log₂ width⌉ for B changes of value, or all [width − 1] when the
    tree is stored whole ([width] = 2^⌈log₂ n⌉). *)

val bytes : t -> int
(** Off-heap bytes of the split table and the index. *)

val draw_counts : t -> Randkit.Rng.t -> int -> int array
(** [draw_counts t rng m] is a multinomial([m], pmf) occurrence-count
    vector of length [size t].  Allocates only the result array.
    @raise Invalid_argument if [m < 0]. *)

val draw_counts_into : t -> Randkit.Rng.t -> counts:int array -> int -> unit
(** Zeroes [counts] and fills it with a multinomial([m], pmf) draw —
    same stream as [draw_counts t rng m].  Allocates nothing, in the dev
    profile too: each node hands [Randkit.Sampler.binomial_at] the table
    and its slot rather than a boxed split probability, and a BTRS
    rejection path reads its log-factorials through a slot.
    @raise Invalid_argument if [m < 0] or [Array.length counts <> size t]. *)

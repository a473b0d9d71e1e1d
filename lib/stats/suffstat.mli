(** Mergeable sufficient statistics: the per-shard state that turns
    identity testing into aggregation.

    The χ² statistic of Prop. 3.3 depends on the stream only through the
    final per-element occurrence counts, and integer counts merge exactly
    — so a shard's sufficient statistic is its count vector (plus per-cell
    totals and Neumaier-compensated weight accumulators for diagnostics),
    and a fleet of shards reaches the *bit-identical* verdict a single
    process holding the whole stream would, under any merge topology.
    [histotestd] keeps one such state per config and adds every shard's
    traffic straight into it; the test-only reference replay and the E20
    bench merge per-shard states at scale.  It implements the {!Numkit.Mergeable.S}
    contract in its exact flavor. *)

type t

val create : part:Partition.t -> t
(** Fresh all-zero state over a partitioned domain — the merge identity
    for its partition.  The partition only sets per-cell diagnostic
    granularity; the total statistic and verdict are partition-independent
    (the χ² total is a sum over elements). *)

val empty_like : t -> t
(** A fresh identity compatible with [t].  It shares [t]'s partition and
    its element-to-cell table (both immutable, O(n) to rebuild), so a
    fleet of sibling shard states holds one copy of the table; the
    counts and cell accumulators are the sibling's own. *)

val clear : t -> unit
(** Reset [t] to the merge identity in place (counts, totals and cell
    masses to zero), keeping its buffers and its table.  A cleared state
    is indistinguishable from a fresh [empty_like t]: every later
    operation leaves both bitwise equal, float cell masses included.
    This is what lets a long-lived owner recycle states instead of
    allocating O(n) per state. *)

val fits : t -> Partition.t -> bool
(** [fits t part]: [t] is a state over a partition equal to [part] (same
    domain and breakpoints; physically the same partition is the O(1)
    case).  A state that fits can stand in for [create ~part]: it merges
    with states over [part], and its statistic against any hypothesis is
    the one a state over [part] would give. *)

val partition : t -> Partition.t
val domain_size : t -> int
val cell_count : t -> int

val observe : ?weight:float -> t -> int -> unit
(** Ingest one observation (mutates [t]); [weight] (default 1.) feeds only
    the per-cell mass accumulators, never the integer counts.
    @raise Invalid_argument outside the domain, or when [total] would
    pass 2^53 (the bound that keeps [float_of_int total] exact). *)

val observe_all : t -> int array -> unit
(** Batch [observe] in array order, unit weights. *)

val observe_sub : t -> int array -> pos:int -> len:int -> unit
(** [observe_all] on the slice [xs.(pos) .. xs.(pos+len-1)] — the
    zero-copy entry point for the service fast path, which decodes wire
    payloads into a reusable workspace buffer.  Raises exactly as a
    sequence of {!observe} calls would: on an out-of-domain element the
    preceding prefix is already ingested.  A slice that would push
    [total] past 2^53 is refused whole, before anything is added.
    @raise Invalid_argument if the slice falls outside the array. *)

val observe_counts : t -> int array -> unit
(** Bulk-add a full count vector (e.g. another process's tallies); cell
    masses accrue each cell's added count as one weight term.
    The whole vector is validated before anything is added, so a
    rejected call leaves [t] unchanged.
    @raise Invalid_argument on length mismatch, a negative count, or a
    sum that would push [total] past 2^53. *)

val total : t -> int
val counts : t -> int array
(** The live per-element counts — a view, not a copy; treat as read-only. *)

val count : t -> int -> int
val cell_count_of : t -> int -> int

val cell_mass : t -> int -> float
(** Compensated per-cell accumulated weight (diagnostics; float, so its
    bits depend on shard grouping — see [merge]). *)

val merge : t -> t -> t
(** Merge monoid, exact flavor: counts and totals add integrally, so every
    verdict-relevant field of the result is bitwise what a single-shard
    run over both streams would hold — associative, commutative, with
    [empty_like] as identity.  Cell-mass Neumaier pairs merge by
    error-free two-sum (the merge adds no rounding, though the floats
    still reflect shard grouping).  Neither input is mutated; the result
    shares [a]'s table as {!empty_like} does.
    @raise Invalid_argument unless both sides share the partition. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds [src] into [into] in place, allocating
    nothing: the loop {!merge} runs, with the same arithmetic in the same
    order.  So [clear acc] followed by [merge_into ~into:acc] over
    [s0, s1, …] leaves [acc] bitwise equal — float cell masses included —
    to the left fold [merge (merge s0 s1) …].  [src] is not mutated.
    @raise Invalid_argument unless both sides share the partition. *)

val equal : t -> t -> bool
(** Equality of the verdict-relevant state: partition, total and exact
    counts (cell masses excluded — they are grouping-dependent floats). *)

val statistic : ?m:float -> t -> dstar:Pmf.t -> eps:float -> Chi2stat.t
(** The ADK15 χ² statistic of the accumulated counts against hypothesis
    [dstar], recomputed from the (merged) state; [m] defaults to the
    accumulated total — the plug-in Poisson mean for service streams whose
    budget *is* the traffic. *)

val verdict : ?m:float -> t -> dstar:Pmf.t -> eps:float -> Verdict.t
(** Accept iff the statistic is at or below
    [Chi2stat.accept_threshold ~m ~eps].  Deterministic given the counts:
    equal states yield equal verdicts, whatever sharding produced them. *)

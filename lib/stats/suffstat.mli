(** Mergeable sufficient statistics: the per-shard state that turns
    identity testing into aggregation.

    The χ² statistic of Prop. 3.3 depends on the stream only through the
    final per-element occurrence counts, and integer counts merge exactly
    — so a state is a partition, a count vector and their total, and a
    fleet of shards reaches the *bit-identical* verdict a single process
    holding the whole stream would, under any merge topology.
    [histotestd] keeps one such state per config and adds every shard's
    traffic straight into it; the test-only reference replay and the E20
    bench merge per-shard states at scale.  It implements the
    {!Numkit.Mergeable.S} contract in its exact flavor. *)

type t

val create : part:Partition.t -> t
(** Fresh all-zero state over a partitioned domain — the merge identity
    for its partition.  The partition sets only the statistic's per-cell
    truncation; ingest never reads it. *)

val empty_like : t -> t
(** A fresh identity compatible with [t], sharing its (immutable)
    partition; the counts are the new state's own. *)

val clear : t -> unit
(** Reset [t] to the merge identity in place (counts and total to zero),
    keeping its count vector.  A cleared state is indistinguishable from
    a fresh [empty_like t]: every later operation leaves both {!equal}.
    This is what lets a long-lived owner recycle a state instead of
    allocating O(n) words per config. *)

val fits : t -> Partition.t -> bool
(** [fits t part]: [t] is a state over a partition equal to [part] (same
    domain and breakpoints; physically the same partition is the O(1)
    case).  A state that fits can stand in for [create ~part]: it merges
    with states over [part], and its statistic against any hypothesis is
    the one a state over [part] would give. *)

val partition : t -> Partition.t

val observe : t -> int -> unit
(** Ingest one observation (mutates [t]).
    @raise Invalid_argument outside the domain, or when [total] would
    pass 2^53 (the bound that keeps [float_of_int total] exact). *)

val observe_all : t -> int array -> unit
(** [observe] in array order. *)

val observe_sub : t -> int array -> pos:int -> len:int -> unit
(** [observe_all] on the slice [xs.(pos) .. xs.(pos+len-1)] — the
    zero-copy entry point for the service fast path, which decodes wire
    payloads into a reusable workspace buffer.  Raises exactly as a
    sequence of {!observe} calls would: on an out-of-domain element the
    preceding prefix is already ingested.  A slice that would push
    [total] past 2^53 is refused whole, before anything is added.
    @raise Invalid_argument if the slice falls outside the array. *)

val observe_counts : t -> int array -> pos:int -> len:int -> unit
(** Bulk-add the count vector held in the slice
    [xs.(pos) .. xs.(pos+len-1)] (e.g. another process's tallies, or a
    payload decoded into the service's arena).  The whole slice is
    validated before anything is added, so a rejected call leaves [t]
    unchanged.
    @raise Invalid_argument if the slice falls outside the array, on a
    length other than the domain size, a negative count, or a sum that
    would push [total] past 2^53. *)

val total : t -> int
val counts : t -> int array
(** The live per-element counts — a view, not a copy; treat as read-only. *)

val merge : t -> t -> t
(** Merge monoid, exact flavor: counts and totals add integrally, so the
    result is exactly what a single-shard run over both streams would
    hold — associative, commutative, with [empty_like] as identity.
    Neither input is mutated; the result shares [a]'s partition as
    {!empty_like} does.
    @raise Invalid_argument (from {!merge_into}) unless both sides share
    the partition. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds [src] into [into] in place, allocating
    nothing: the loop {!merge} runs.  So [clear acc] followed by
    [merge_into ~into:acc] over [s0, s1, …] leaves [acc] {!equal} to the
    left fold [merge (merge s0 s1) …].  [src] is not mutated.
    @raise Invalid_argument unless both sides share the partition. *)

val equal : t -> t -> bool
(** Equality of the whole state: partition, total and exact counts. *)

val statistic : t -> dstar:Families.hypothesis -> eps:float -> Chi2stat.t
(** The ADK15 χ² statistic of the accumulated counts against hypothesis
    [dstar], recomputed from the (merged) state at [m] = the accumulated
    total — the plug-in Poisson mean for service streams whose budget
    *is* the traffic.  Per-cell sums are grouped by the state's
    partition whatever the hypothesis's form: a [Dense] pmf goes
    through {!Chi2stat.compute}, [Pieces] through
    {!Chi2stat.compute_khist}, which reads one level per run and never
    expands it.  The two forms of one pmf give the same bits. *)

val verdict : t -> dstar:Families.hypothesis -> eps:float -> Verdict.t
(** Accept iff the statistic is at or below
    [Chi2stat.accept_threshold ~m:total ~eps].  Deterministic given the counts:
    equal states yield equal verdicts, whatever sharding produced them. *)

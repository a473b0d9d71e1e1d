(** A fixed-size domain pool for embarrassingly parallel batches.

    The experiment harness runs hundreds of independent Monte-Carlo trials
    per sweep point; this pool spreads a batch over OCaml 5 domains while
    keeping results **deterministic**: [map]/[init] return results in
    submission order, and the pool itself introduces no randomness — the
    scheduling order in which indices happen to execute is invisible as
    long as the per-index work is independent (the harness guarantees this
    by pre-splitting one RNG per trial sequentially, before dispatch).
    Chunked claiming changes only *where* indices run, never what any
    index computes, so the chunk size cannot affect results either.

    A [jobs = 1] pool degenerates to a plain sequential loop with no
    domains, no locks and no extra allocation, so callers can thread a
    pool unconditionally. *)

type t

val create : jobs:int -> unit -> t
[@@histolint.keep "[with_pool] runs it; test_parkit pins it directly"]
(** A pool running batches on [jobs] domains ([jobs - 1] spawned workers
    plus the submitting domain).  A 1-job pool spawns nothing, runs
    sequentially, and leaves the GC alone.

    Each batch of [total] indices is claimed in chunks of
    [default_grain ~jobs ~total] contiguous indices per mutex round-trip.

    When [jobs > 1], every worker domain *and* the calling domain get a
    minor heap of at least [default_minor_heap_words] via [Gc.set]: OCaml
    5 minor collections are stop-the-world across all domains, so one
    domain with a small nursery stalls the whole pool.  The setting is
    only ever an enlargement (a domain whose minor heap is already at
    least this big is untouched) and is not restored on [shutdown].
    @raise Invalid_argument if [jobs <= 0]. *)

val jobs : t -> int

val default_grain : jobs:int -> total:int -> int
[@@histolint.keep "[map] runs it; test_parkit pins it directly"]
(** [max 1 (total / (4 * jobs))] — about four claim rounds per domain:
    coarse enough that lock handoffs are negligible even for sub-millisecond
    trial bodies, fine enough that uneven per-index cost still balances. *)

val default_minor_heap_words : int
(** 8192k words (64 MiB) per domain — the value DESIGN.md's
    [OCAMLRUNPARAM=s=8192k] note recommended, now applied in-process. *)

val sequential : t
(** The shared 1-job pool: a plain loop, always safe. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val get_default : unit -> t
(** A process-wide shared pool, created lazily with [default_jobs ()].
    Harness entry points use it when no explicit pool is passed. *)

val set_default : jobs:int -> unit
(** Replace the process-wide default pool (shutting the old one down).
    This is what the [--jobs] CLI flags call. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] applies [f] to every element, possibly on several
    domains, and returns the results **in index order** — identical to
    [Array.map f arr] whenever [f]'s per-element work is independent.
    [f] must be safe to run concurrently with itself (no shared mutable
    state; immutable inputs such as alias tables and PMFs are fine).
    If any application raises, the first exception observed is re-raised
    after the batch drains (the unclaimed remainder is cancelled, the
    rest of the raising chunk skipped).  Calls nested inside a pool task
    run sequentially instead of deadlocking. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init pool n f] is [map] over indices [0 .. n-1], in index order. *)

val iter : t -> ('a -> unit) -> 'a array -> unit
[@@histolint.keep "a Race.pool_entrypoints name; race-lint fixtures call it"]
(** [iter pool f arr] is {!map} for effectful [f], without building a
    result array.  Same concurrency contract as [map]; the join orders
    every effect of [f] before [iter] returns. *)

val shutdown : t -> unit
[@@histolint.keep "[with_pool] runs it; test_parkit pins it directly"]
(** Join the worker domains.  The pool must not be used afterwards;
    shutting down [sequential] or an already-shut pool is a no-op. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** Create, run, and always shut down. *)

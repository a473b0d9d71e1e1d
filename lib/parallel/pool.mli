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

    A pool is a value its holder opens with {!with_pool} and passes on;
    there is no process-wide pool, and the pool changes no GC setting of
    any domain.  A [jobs = 1] pool degenerates to a plain sequential loop
    with no domains, no locks and no extra allocation, so callers can
    thread a pool unconditionally. *)

type t

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a pool of [jobs] domains ([jobs - 1]
    spawned workers plus the submitting domain) and joins the workers when
    [f] returns or raises.  A 1-job pool spawns nothing.  The pool must
    not escape [f].  If a spawn fails, the workers already started are
    joined before the exception is raised.
    @raise Invalid_argument if [jobs <= 0] or [jobs > max_jobs], before
    any domain starts. *)

val max_jobs : int
(** The runtime's limit on domains alive at once (128 on 64-bit
    systems), the submitting domain included: the largest [jobs] a pool
    accepts. *)

val sequential : t
(** The shared 1-job pool: a plain loop, always safe, never opened or
    closed. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val default_grain : jobs:int -> total:int -> int
[@@histolint.keep "[map] runs it; test_parkit pins it directly"]
(** [max 1 (total / (4 * jobs))] — about four claim rounds per domain:
    coarse enough that lock handoffs are negligible even for sub-millisecond
    trial bodies, fine enough that uneven per-index cost still balances.
    Each batch of [total] indices is claimed in chunks of this many
    contiguous indices per mutex round-trip. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] applies [f] to every element, possibly on several
    domains, and returns the results **in index order** — identical to
    [Array.map f arr] whenever [f]'s per-element work is independent.
    [f] must be safe to run concurrently with itself (no shared mutable
    state; immutable inputs such as alias tables and PMFs are fine).
    The join orders every effect of [f] before [map] returns.
    If any application raises, the first exception observed is re-raised
    after the batch drains (the unclaimed remainder is cancelled, the
    rest of the raising chunk skipped).  Calls nested inside a pool task
    run sequentially instead of deadlocking. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init pool n f] is [map] over indices [0 .. n-1], in index order. *)

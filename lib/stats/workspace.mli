(** Reusable scratch buffers for the trial engine's hot path.

    Every oracle call used to allocate a fresh O(n) counts array (512 KB at
    n = 2¹⁶) or O(m) sample array, and every χ² statistic a per-cell
    accumulator — across domains this hammers OCaml 5's stop-the-world GC
    hard enough to make parallel trials *slower* than sequential ones.  A
    workspace holds those buffers once and lends them out call after call:
    [Poissonize.of_alias_ws] oracles draw into [counts]/[samples],
    [Chi2stat.compute]/[Adk15.run] write into [per_cell], and Algorithm
    1's checking DP runs in the [closest] scratch.

    Lending contract: a buffer returned by an accessor is valid until the
    *next* request for the same buffer kind on the same workspace (for an
    oracle: until its next call; for the DP scratch: until the next fit
    that runs in it).  Callers that retain results across calls
    must [Array.copy] them.  A workspace is single-owner mutable state — it
    must never be shared by code running concurrently; the harness keeps
    one per domain ([domain_local]) so trials scheduled onto the same
    domain reuse it strictly one after another. *)

type t

val create : unit -> t
(** A fresh workspace with empty buffers; they are sized on first use and
    resized whenever a request's length differs from the cached one. *)

val counts : t -> int -> int array
(** [counts t n] is the reusable length-[n] int buffer (contents are
    whatever the previous borrower left; [Alias.draw_counts_into] zeroes
    it).  Reallocates only when [n] changes. *)

val samples : t -> int -> int array
(** [samples t m] is the reusable length-[m] int buffer. *)

val per_cell : t -> int -> float array
(** [per_cell t k] is the reusable length-[k] float buffer for per-cell χ²
    statistics ([Chi2stat.compute] zeroes it). *)

val closest : t -> Closest.scratch
(** [closest t] is the reusable scratch of the checking DP
    ({!Closest.fit_cells}), created on first use: [create] pays nothing
    for it.  Its index, DP rows and choice matrix are valid until the
    next fit on the same workspace. *)

val domain_local : unit -> t
(** The calling domain's workspace, created lazily on first use and shared
    by everything that runs on this domain afterwards.  This is what
    [Harness.run_trials] hands to each trial. *)

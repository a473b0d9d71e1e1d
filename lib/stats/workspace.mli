(** Reusable scratch buffers for the trial engine's hot path.

    Every oracle call used to allocate a fresh O(n) counts array (512 KB at
    n = 2¹⁶) or O(m) sample array, and every χ² statistic a per-cell
    accumulator — across domains this hammers OCaml 5's stop-the-world GC
    hard enough to make parallel trials *slower* than sequential ones.  A
    workspace holds those buffers once and lends them out call after call:
    [Poissonize.counts_of_tree_ws] oracles draw into [counts]/[samples],
    [Chi2stat.compute]/[Adk15.run] write into [per_cell], Algorithm 1's
    stages keep their cell-sized arrays in the buffers below, and its
    checking DP runs in the [closest] scratch: a warm trial allocates
    only its report.

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
(** A fresh workspace with empty buffers, sized on first use. *)

val counts : t -> int -> int array
(** [counts t n] is the reusable length-[n] int buffer (contents are
    whatever the previous borrower left; [Split_tree.draw_counts_into]
    zeroes it).  Cached by exact length: reallocates whenever [n] changes. *)

val samples : t -> int -> int array
(** [samples t m] is the reusable length-[m] int buffer. *)

(** {2 Cell-sized buffers}

    Algorithm 1's stages work over the K cells of a trial's partition, and
    K moves by a cell or two from trial to trial.  These buffers are
    therefore cached by capacity: [f t k] returns a buffer of {i at least}
    [k] entries (callers use the first [k]), reallocated only when [k]
    exceeds every earlier request, and then to at least twice the old
    length, keeping the old contents as its prefix.  Contents are
    otherwise whatever the previous borrower left. *)

val per_cell : t -> int -> float array
(** Per-cell χ² statistics ([Chi2stat.compute] zeroes the first [k]). *)

val cuts : t -> int -> int array
(** The interior cut positions [Approx_part] emits. *)

val heavy : t -> int -> bool array
(** [Approx_part]'s per-cell heavy-singleton flags. *)

val cell_counts : t -> int -> int array
(** The learner's per-cell sample counts. *)

val levels : t -> int -> float array
(** The learned D̂'s cell levels, lent to the [Khist.t] the learner
    returns: valid until the next learner fit on the same workspace. *)

val eligible : t -> int -> bool array
(** Which cells the sieve may remove. *)

val medians : t -> int -> float array
(** The sieve's per-cell medians of a round. *)

val rows : t -> rows:int -> int -> float array array
(** At least [rows] per-repetition rows of at least [k] floats each: the
    sieve's per-cell statistics of one round. *)

val closest : t -> Closest.scratch
(** [closest t] is the reusable scratch of the checking DP
    ({!Closest.fit_cells}), created on first use: [create] pays nothing
    for it.  Its index, dp table and choice matrix are valid until the
    next fit on the same workspace. *)

val domain_local : unit -> t
(** The calling domain's workspace, created lazily on first use and shared
    by everything that runs on this domain afterwards.  This is what
    [Harness.run_trials] hands to each trial. *)

(** Exact distance from an explicit distribution to the class H_k, under
    total variation, optionally restricted to a sub-domain — the dynamic
    program behind the Checking step of Algorithm 1 (Step 10, after
    CDGR16 Lemma 4.11).

    The input is compressed to maximal constant runs first, which is
    lossless: within a run of the target, the segment cost is linear in the
    position of a piece boundary, so an optimal solution exists whose
    boundaries sit on run boundaries.  Excluded (masked-out) regions carry
    weight 0 — pieces may change value freely across them, which is exactly
    the semantics of the sieved domain G.

    The DP draws every segment cost from an O(log K) oracle
    ({!Numkit.Rank_index}) and dispatches per input: on value-monotone
    cell sequences the cost is concave-Monge (the k-median-on-a-line
    case) and each layer runs as a divide and conquer (monotone argmin),
    O(K log K) oracle calls per layer; on arbitrary cells the cost is
    NOT Monge (DESIGN.md records the counterexample), so each row r
    scans its piece starts l = r, r−1, … once and each priced segment
    relaxes every layer — K²/2 oracle calls in all, whatever k.  Either
    way O(K log K + kK) memory, instead of the classic Θ(K²k) time /
    Θ(K²) cost matrix — which the test-only [Refkit.Closest_dense] keeps
    for cross-checking (see bench E18).  Ties between equal-cost piece
    starts are broken leftmost in all paths (the row scan's descending
    [<=] test keeps the smallest l), so their costs AND chosen
    breakpoints are bit-identical.

    Note the fit is over all piecewise-constant functions with at most k
    pieces (no sum-to-one constraint): on a restricted domain the excluded
    region absorbs the normalization slack, matching the paper's use. *)

type cell = { value : float; weight : float }

type scratch
(** Everything a DP run writes — its staged input cells, the
    segment-cost index, the k×K table of layer values, the k×K choice
    matrix and the query result slot — held in Bigarrays outside the GC
    heap and reused run after run, grown only past the largest K and k·K
    seen, and then to at least twice their size.
    Lending contract:
    single owner; what a run leaves in it is valid until the next
    {!fit_cells} on the same scratch, and it must never be used by code
    running concurrently.  A trial's [Workspace] owns one. *)

val scratch : unit -> scratch
(** An empty scratch: it holds no tables until its first fit. *)

val fit_cells : ?scratch:scratch -> cell array -> k:int -> float * int list
(** Optimal ≤k-piece weighted-L1 segmentation of a cell sequence:
    (cost, piece start indices, first = 0).  Fast path: divide and
    conquer on value-monotone cells (O(k · K log K) oracle calls after
    an O(K log K) index build), one row scan otherwise (K²/2 oracle
    calls, K with one piece); no K×K allocation either way.  Leftmost argmin on ties.  Runs in [scratch]
    (a fresh one for the call when absent): on a scratch that has
    already fitted as many cells at this [k], the run allocates nothing
    but its answer. *)

val fit_khist : scratch -> Khist.t -> keep:bool array -> k:int -> float * int list
(** [fit_cells ~scratch (cells_of_khist h ~keep) ~k], bit for bit, with
    the cells compressed straight into the scratch: what Algorithm 1's
    checking step runs.  On a scratch that has already fitted as many
    cells at this [k] it allocates only its answer. *)

val cells_of_pmf : ?mask:bool array -> Pmf.t -> cell array
(** The DP cells of a pmf: its maximal constant runs, each kept run
    weighted by its length, each excluded run of length ≥ 2 split into
    two zero-weight cells (so a piece may change value inside it). *)

val cells_of_khist : Khist.t -> keep:bool array -> cell array
(** The cells of a histogram restricted to the cells [keep] marks,
    compressed one histogram cell at a time, in O(K) rather than O(n):
    exactly [cells_of_pmf ~mask:(Partition.restrict_mask part ~keep)
    (Khist.to_pmf h)], [part] the histogram's partition. *)

val l1_to_hk : ?mask:bool array -> Pmf.t -> k:int -> float
(** min over ≤k-piece functions h of Σ_{i kept} |D(i) − h(i)|. *)

val tv_to_hk : ?mask:bool array -> Pmf.t -> k:int -> float
(** Half of {!l1_to_hk} — the restricted dTV(D, H_k) of the paper. *)

val witness : ?mask:bool array -> Pmf.t -> k:int -> float * Khist.t
(** The cost together with an optimal ≤k-piece fit. *)

val brute_force_l1 : ?mask:bool array -> Pmf.t -> k:int -> float
(** Exhaustive reference implementation, domains of size ≤ 16 only; used by
    the test suite to certify the DP (and, unlike [Refkit.Closest_dense], it
    shares no oracle with the fast path). @raise Invalid_argument
    beyond. *)

(** Histogram construction: the classical database algorithms the paper's
    introduction situates itself against, used here both as workload
    generators and as the learning stage of the CDGR16-style baseline
    tester. *)

val equi_width : Pmf.t -> k:int -> Khist.t
(** k equal-length buckets, conditional-uniform levels. *)

val equi_depth : Pmf.t -> k:int -> Khist.t
(** Buckets cut at the k-quantiles of the CDF (possibly fewer cells when
    heavy elements straddle several quantiles). *)

val v_optimal_cells :
  values:float array -> weights:float array -> k:int -> float * int list
[@@histolint.keep "[v_optimal] runs it; test_histkit pins it directly"]
(** Exact V-optimal (minimum weighted sum of squared errors) segmentation of
    a cell sequence into at most k pieces (Jagadish et al., VLDB'98 DP).
    Returns (cost, piece start indices, ascending, first = 0).  O(K²k). *)

val v_optimal : Pmf.t -> k:int -> Khist.t
(** V-optimal histogram of a pmf; the pmf is first compressed to its maximal
    constant runs, so the DP runs on K runs rather than n points. *)

val greedy_merge_cells :
  values:float array -> weights:float array -> k:int -> (int * int) list
[@@histolint.keep "[greedy_merge] runs it; test_histkit pins it directly"]
(** Bottom-up greedy merging of adjacent cells (ADLS15-flavored
    near-linear-time alternative to the exact DP): repeatedly merge the
    adjacent pair with the smallest SSE increase until k segments remain.
    Returns the segments as (first cell, one-past-last cell) pairs. *)

val greedy_merge : Pmf.t -> k:int -> Khist.t

val end_biased : Pmf.t -> heavy_cutoff:float -> k:int -> Khist.t
(** End-biased ("compressed") histogram à la Poosala et al.: elements with
    mass ≥ [heavy_cutoff] get exact singleton buckets (at most k−1 of
    them), the rest an equi-depth split of the leftover budget.  The
    bucket count can slightly exceed k when singleton isolation forces
    extra boundaries. *)

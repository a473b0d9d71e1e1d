(** k-modal distributions: pmfs whose direction of growth flips at most k
    times.  The paper observes (after Theorem 1.2) that its lower bound
    transfers to testing k-modality; this module supplies the
    direction-change count that defines the class, workload generators,
    and an exact (small-n) L1 distance to the class, so experiment E14 can
    exercise the remark. *)

type direction = Up | Down

val direction_changes : Pmf.t -> int
(** Number of up/down alternations of the pmf (flat steps are neutral). *)

val random_kmodal : n:int -> k:int -> rng:Randkit.Rng.t -> Pmf.t
(** k+1 alternating linear ramps over near-equal blocks. *)

val monotone_cost_table : dir:direction -> float array -> float array array
[@@histolint.keep "[l1_to_kmodal] runs it; test_histkit pins it directly"]
(** All-interval monotone fit costs, [table.(l).(r)] = min Σ|v_i − f_i|
    over [dir]-monotone f on l..r inclusive: one max-heap slope-trimming
    sweep per left endpoint, O(n² log n). *)

val l1_to_kmodal : Pmf.t -> k:int -> float
[@@histolint.keep "[tv_to_kmodal] runs it; test_histkit pins it directly"]
(** Exact min L1 distance to a function with at most k direction changes
    (DP over ≤ k+1 alternating monotone segments).  O(k·n²(log n)) — meant
    for the moderate domain sizes of the k-modal experiment.  The fit is
    unconstrained in total mass, mirroring {!Closest}. *)

val tv_to_kmodal : Pmf.t -> k:int -> float

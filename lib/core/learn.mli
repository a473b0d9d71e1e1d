(** Agnostic learning of k-histograms from samples — the [ADLS15]-style
    primitive the paper's introduction pairs with the tester: once
    {!Model_select} has certified the smallest adequate k, this produces
    the succinct representation itself, from Θ(k/ε²) samples.

    Method: empirical masses over an equal-empirical-mass grid of O(k/ε)
    cells, compressed to k pieces by greedy merging (near-linear time).
    If D ∈ H_k the output is O(ε)-close in TV; in general it competes with
    the best k-histogram up to O(ε) (agnostic guarantee).  This is also
    the learning stage the CDGR16-style baseline uses. *)

type result = {
  hypothesis : Khist.t;
  samples_used : int;
  grid_cells : int;  (** size of the intermediate grid *)
}

val budget : k:int -> eps:float -> int
(** Θ(k/ε²). *)

val run : Poissonize.oracle -> k:int -> eps:float -> result

(** The ILR12-style baseline (O(√(kn)·log n/ε⁵) samples): build an adaptive
    dyadic decomposition whose leaves pass collision flatness tests (reject
    on piece-count explosion beyond O(k·log n)), then fit a k-histogram to
    the empirical flattening over the leaves with the exact segmentation DP
    and threshold its distance at ε/2.

    [ILR12] has no public implementation; this reimplementation keeps
    their algorithmic skeleton — recursive interval decomposition driven by
    sublinear flatness tests, sample reuse across scales, and a histogram
    fit over the resulting partition — and their stated budget, which is
    what the E3 comparison is about.  Completeness: a k-histogram splits
    into ≤ 2k·log₂n flat dyadic pieces and its flattening is itself, so the
    fit cost is ~0.  Soundness: if D is ε-far from H_k, either the
    decomposition explodes, or every leaf is conditionally flat — making
    the flattening close to D, so the DP fit stays ≥ ~ε/2. *)

val budget : n:int -> k:int -> eps:float -> int
val test : Poissonize.oracle -> k:int -> eps:float -> Verdict.t

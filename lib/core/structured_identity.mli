(** Identity testing against an explicit k-histogram hypothesis, under the
    structural promise that the unknown D is itself (close to) a
    k-histogram — the [DKN15] setting referenced by the paper's related
    work.  Under the promise the domain can be collapsed before testing:

    + split every piece of D* into equal-length cells of D*-mass ≤ ε/(8k),
      giving K' = O(k/ε) reduced cells;
    + a k-flat D can disagree with its cell-mass reduction only around its
      ≤ k−1 breakpoints and where D* pieces end, each costing at most one
      cell's mass: the reduction preserves Ω(ε) of any ε TV gap;
    + run the χ² identity test on the K'-ary reduced multinomial.

    Budget O(√(k/ε)/ε²) — independent of n, versus the O(√n/ε²) of the
    unstructured {!Adk15} test; extension experiment E16 measures the gap.
    Without the promise the guarantee is one-sided only (a far D that
    oscillates inside cells can fool the reduction; that D is then far
    from H_k and Algorithm 1 itself is the right tool). *)

type outcome = {
  verdict : Verdict.t;
  reduced_cells : int;  (** K', the collapsed domain size *)
  statistic : float;
  threshold : float;
  samples_used : int;
}

val reduction_partition : dstar:Pmf.t -> k:int -> eps:float -> Partition.t
(** The D*-adapted collapse: pieces of D* refined to cells of mass
    ≤ ε/(8k). *)

val budget : ?config:Config.t -> cells:int -> eps:float -> unit -> int

val run :
  ?config:Config.t ->
  Poissonize.oracle ->
  dstar:Pmf.t ->
  k:int ->
  eps:float ->
  outcome

(** The χ² learner of Lemma 3.5: the add-one (Laplace) estimator

    D̂(j) = (m_I + 1)/(m + ℓ) · 1/|I|  for j ∈ I

    over a partition into ℓ intervals, from m = O(ℓ/ε²) samples.  If
    D ∈ H_k and J are its breakpoint cells, then with probability ≥ 9/10
    dχ²(D̃^J ‖ D̂) ≤ ε² — i.e. D̂ is χ²-accurate everywhere except possibly
    on the ≤ k−1 cells the sieve will hunt down.  D̂ is strictly positive,
    so χ² divergences against it are always finite.  (The accuracy argument
    is E[dχ²] ≤ ℓ/m plus Markov, as in the paper via [KOPS15].) *)

type result = {
  estimate : Pmf.t;  (** D̂, strictly positive, piecewise constant *)
  histogram : Khist.t;  (** the same D̂ as an explicit cell/level list *)
  samples_used : int;
}

val fit :
  config:Config.t ->
  Poissonize.oracle ->
  part:Partition.t ->
  eps:float ->
  Khist.t * int
(** D̂ as K levels over [part], and the samples drawn: what Algorithm 1
    keeps, K floats rather than n.  [eps] is the target χ/accuracy
    parameter (the ε/60 of Algorithm 1, divided further per [config]). *)

val run : ?config:Config.t -> Poissonize.oracle -> part:Partition.t -> eps:float -> result
(** {!fit} followed by [Khist.to_pmf]: the same D̂, also as a dense pmf. *)

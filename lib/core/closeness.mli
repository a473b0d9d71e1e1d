(** Two-sample closeness testing: are two unknown distributions equal, or
    ε-far in total variation?  This is the [CDVV14] statistic the paper's
    footnote 2 credits as the origin of the χ²-style analysis it builds on:

    Z = Σ_i ((X_i − Y_i)² − X_i − Y_i) / (X_i + Y_i)

    over Poissonized count vectors X, Y of the two samples.  Under
    D₁ = D₂, E[Z] = 0 (given X_i+Y_i, the difference is a centered
    binomial); under dTV ≥ ε, E[Z] ≳ 2mε².

    The budget used is O(√n/ε²); [CDVV14]'s sharper O(n^{2/3}/ε^{4/3})
    regime (via a heavy/light bucketing of the domain) is not implemented —
    on the workloads here the √n regime is the binding one.  Extension
    experiment E15 measures the statistic's separation. *)

type outcome = {
  verdict : Verdict.t;
  statistic : float;
  threshold : float;
  samples_used : int;  (** realized total over both samples *)
}

val budget : ?config:Config.t -> n:int -> eps:float -> unit -> int
(** Per-sample Poisson mean. *)

val statistic : x:int array -> y:int array -> float
[@@histolint.keep "[run] runs it; test_histotest pins it directly"]
(** The raw Z from two count vectors. *)

val run :
  ?config:Config.t ->
  Poissonize.oracle ->
  Poissonize.oracle ->
  eps:float ->
  outcome

(** Success-probability amplification ("standard arguments: repeating the
    test and taking the median value", §3.2.1).  The sieving stage runs the
    χ² test with failure probability δ = Θ(1/(k·log k)) so that a union
    bound over its O(k log k) invocations goes through; these are the
    repetition counts it uses. *)

val repetitions_for : delta:float -> int
(** Odd number of independent 2/3-correct trials whose majority is correct
    with probability ≥ 1 − delta (Chernoff, r ≥ 18·ln(1/δ)). *)

val majority_vote :
  ?pool:Parkit.Pool.t -> trials:int -> (int -> Verdict.t) -> Verdict.t
(** Run [f 0 .. f (trials-1)] and return the majority verdict.  Runs
    sequentially unless a pool is given: only pass [?pool] when [f] is
    independent per index (no shared generator or oracle), in which case
    the result is the same at any job count. *)

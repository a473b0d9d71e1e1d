(** The sieving stage of §3.2.1 — and the component of the upper-bound
    proof the PODS 2023 corrigendum concerns, which is why its schedule is
    fully parameterized by {!Config} and ablated in experiment E10.

    Given the learned hypothesis D̂ over the ApproxPart partition, the sieve
    hunts down the ≤ k−1 cells where the learner's guarantee may fail (the
    breakpoint cells of a true k-histogram) by repeatedly computing the
    per-cell χ² statistics Z_j and discarding the worst offenders:

    - stage 1 removes in one shot every removable cell whose own Z_j
      exceeds the clean-domain allowance (rejecting if more than k do);
    - stage 2 runs ≤ O(log k) rounds, each drawing fresh samples, stopping
      as soon as the kept total Z is below the stop threshold and otherwise
      removing the smallest worst-prefix that brings the residual under the
      target;
    - at most O(k·log k) cells may ever be removed (reject beyond), so in
      the soundness case the discarded mass stays O(ε) — only length-≥2
      cells are removable ([eligible]), whose mass ApproxPart bounds by 2/b.

    Each round's statistics are medians over [Config.sieve_reps] repetitions
    (failure probability δ = O(1/k) per test, for the union bound over the
    O(k log k) outcomes). *)

type round_log = {
  round : int;
  z_before : float;  (** kept-cell Z when the round started *)
  removed : int list;  (** cells discarded this round *)
  z_after : float;  (** residual after removals *)
  stopped : bool;  (** whether the stop threshold was reached *)
}

type result = {
  kept : bool array;  (** per-cell: still part of the domain G *)
  verdict : Verdict.t;
      (** [Reject] iff the removal budget (or the stage-1 cap of k) was
          exceeded — the sieve's own rejection causes; [Accept] otherwise
          (including rounds running out, which the later stages arbitrate) *)
  removed_count : int;
  rounds_used : int;
  samples_used : int;
  stop_threshold : float;
  log : round_log list;
}

val run :
  ?config:Config.t ->
  Poissonize.oracle ->
  dhat:Pmf.t ->
  part:Partition.t ->
  eligible:bool array ->
  k:int ->
  eps:float ->
  result
(** The sieve against a dense D̂ over [part]: a thin adapter over the
    rounds {!run_khist} runs. *)

val run_khist :
  config:Config.t ->
  Poissonize.oracle ->
  dhat:Khist.t ->
  eligible:bool array ->
  k:int ->
  eps:float ->
  result
(** The same rounds against D̂ held as cell levels (what Algorithm 1
    runs), bit-identical to [run ~dhat:(Khist.to_pmf dhat)
    ~part:(Khist.partition dhat)]. *)

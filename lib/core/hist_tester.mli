(** Algorithm 1 — the paper's main contribution: test whether an unknown
    distribution over [n] is a k-histogram, or ε-far in total variation
    from every k-histogram, with

    O(√n/ε²·log k + k/ε³·log²k + k/ε·log(k/ε))

    samples (Theorem 3.1).  Pipeline: ApproxPart partition → χ² learner →
    sieving (discard ≤ O(k log k) contaminated cells) → closest-H_k check
    on the kept domain (DP) → ADK15 χ²-vs-TV test of D against the learned
    D̂ at ε' = 13ε/30, restricted to the kept domain.

    Completeness: if D ∈ H_k, whp every stage passes (the only cells the
    learner may miss are the ≤ k−1 breakpoint cells, which the sieve
    removes).  Soundness: if dTV(D, H_k) ≥ ε, the sieve can only discard
    O(ε) mass, so either the check fails (D̂ far from every k-histogram on
    the kept domain) or the final test sees dTV ≥ 13ε/30 and rejects. *)

type stage = Sieving | Checking | Testing
(** The stages that can decide a run: ApproxPart and the learner never
    do. *)

val stage_to_string : stage -> string

type report = {
  verdict : Verdict.t;
  decided_at : stage;  (** stage that produced the verdict *)
  samples_used : int;  (** actual samples drawn across all stages *)
  cells : int;  (** K, the ApproxPart partition size *)
  sieve : Sieve.result option;
  check_distance : float option;
      (** the DP's dTV(D̂, H_k) on the kept domain *)
  final : Adk15.outcome option;
}

val plan : ?config:Config.t -> n:int -> k:int -> eps:float -> unit -> int
(** Worst-case planned sample budget of a run with these parameters (the
    quantity the E3 comparison tabulates). *)

val run :
  ?config:Config.t ->
  ?ws:Workspace.t ->
  Poissonize.oracle ->
  k:int ->
  eps:float ->
  report
(** Full run with per-stage diagnostics.  Every stage keeps its
    cell-sized arrays in [ws] — typically the trial's workspace when
    running under [Harness]; a fresh one when absent — and the checking
    DP runs in its scratch ({!Workspace.closest}), so a warm trial
    allocates little beyond its report and its partition.  The
    partition's cells are one int array put straight into the major
    heap; it holds no pointer, so of the trial's young words only the
    report's survive the next minor collection.  The report's [final]
    per-cell array is a workspace view (see {!Adk15.run}), and its
    sieve's [kept] mask is the report's own.  Verdicts, scalar fields and
    the sampled streams are the same with or without [ws]. *)

val test :
  ?config:Config.t ->
  ?ws:Workspace.t ->
  Poissonize.oracle ->
  k:int ->
  eps:float ->
  Verdict.t
(** Just the verdict — with [ws] this is the allocation-free hot path the
    experiment harness runs per trial. *)

val pp_report : Format.formatter -> report -> unit
(** Multi-line human-readable rendering of a report. *)

(** The tester of Theorem 3.2 ([ADK15]): given the explicit hypothesis D*,
    distinguish dχ²(D ‖ D∗) ≤ ε²/500 (accept) from dTV(D, D∗) ≥ ε (reject)
    with O(√n/ε²) Poissonized samples, by thresholding the Z statistic of
    {!Chi2stat} at m·ε²/10.

    Supports the refinement Algorithm 1 needs: the statistic is computed
    per partition cell and can be restricted to the kept cells of a sieved
    sub-domain (footnote 6's restricted χ²/TV semantics). *)

type outcome = {
  verdict : Verdict.t;
  statistic : Chi2stat.t;
  threshold : float;
  samples_used : int;
}

val budget : ?config:Config.t -> n:int -> eps:float -> unit -> int
(** The sample budget m = c·√n/ε² the tester will draw (as a Poisson
    mean). *)

val run :
  ?config:Config.t ->
  ?cell_mask:bool array ->
  ?part:Partition.t ->
  ?ws:Workspace.t ->
  Poissonize.oracle ->
  dstar:Pmf.t ->
  eps:float ->
  outcome
(** One shot (2/3 confidence).  Default partition: the whole domain as one
    cell.  With [ws] (the trial's workspace in the harness hot path) the
    statistic's [per_cell] array is a view into the workspace, clobbered
    by the next [ws]-carrying statistic on the same workspace — copy it
    if the outcome outlives the trial; the verdict, [z] and threshold are
    plain values and always safe. *)

val run_boosted :
  ?config:Config.t ->
  ?cell_mask:bool array ->
  ?part:Partition.t ->
  ?ws:Workspace.t ->
  reps:int ->
  Poissonize.oracle ->
  dstar:Pmf.t ->
  eps:float ->
  outcome * Chi2stat.t array
[@@histolint.keep "tested only by test_histotest; no production caller"]
(** Median-of-[reps] amplification of the statistic (§3.2.1's "repeating
    the test and taking the median value"); also returns the per-repetition
    statistics so callers can take per-cell medians.  With [ws] every
    returned statistic shares the one workspace buffer (only the last
    repetition's per-cell values survive; the medianed [z] values are
    unaffected) — omit [ws] when the per-cell breakdown matters. *)

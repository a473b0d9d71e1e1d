(** The model-selection use-case of the paper's introduction: find (a
    2-approximation of) the smallest k such that the data distribution is a
    k-histogram within ε, by doubling search over amplified tester calls —
    the primitive a database engine would run before committing to a bin
    count for its summaries.

    If D ∈ H_{k*}, every probe at k ≥ k* accepts (whp after boosting); the
    returned k̂ then satisfies k̂ ≤ 2k* by the doubling schedule, and probes
    below k̂ were rejected, certifying that fewer bins are not enough at
    accuracy ε. *)

type result = {
  k_hat : int option;
      (** smallest accepted k on the probe schedule; [None] if even
          [k_max] rejects *)
  probes : (int * Verdict.t) list;
  samples_used : int;
}

val run :
  ?config:Config.t ->
  make_oracle:(unit -> Poissonize.oracle) ->
  k_max:int ->
  eps:float ->
  unit ->
  result
(** [make_oracle] must hand out fresh sample access on every call (probes
    must be independent); each probe is a majority vote over 3 tester
    runs. *)

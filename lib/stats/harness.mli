(** Experiment harness: repeated independent tester trials against known
    ground truth.

    Each trial gets a split-off generator and a fresh oracle, so trials are
    statistically independent yet the whole experiment is reproducible from
    one seed.  Trials run on the [Parkit] pool the caller passes as
    [~pool] (the CLI and bench runner open one sized by [--jobs]).  The
    generators are split sequentially *before* dispatch and the O(n) alias
    table is built once per PMF and shared read-only, so results are
    bit-identical at any job count — trial [i] sees the same generator
    stream whether it runs first, last, or on another domain. *)

type trial = {
  rng : Randkit.Rng.t;
  oracle : Poissonize.oracle;
      (** Workspace-backed ([Poissonize.of_alias_ws]): arrays it returns
          are views into [ws], overwritten by the oracle's next call —
          [Array.copy] anything retained across calls (or across trials).
          The draw streams are identical to an allocating oracle's. *)
  ws : Workspace.t;
      (** The running domain's workspace, shared by every trial scheduled
          onto that domain (strictly one at a time); testers accept it to
          reuse per-cell statistic buffers too (e.g.
          [Hist_tester.test ~ws]). *)
}

type oracle_kind =
  | Stream
      (** Alias-table draws: Θ(m) per trial, the bit-exact reference path
          (streams pinned since PR 2). *)
  | Counts
      (** Split-tree binomial splitting: count vectors generated directly,
          O(K log(n/K)) per trial independent of m.  Same law, different
          generator consumption — results agree with [Stream]
          distributionally, not bit-for-bit. *)

val oracle_kind_of_string : string -> oracle_kind option
(** ["stream"] / ["counts"]; the CLI and bench [--oracle] vocabulary. *)

val oracle_kind_to_string : oracle_kind -> string

val run_trials :
  pool:Parkit.Pool.t ->
  ?oracle:oracle_kind ->
  rng:Randkit.Rng.t ->
  trials:int ->
  pmf:Pmf.t ->
  (trial -> 'a) ->
  'a array
(** Results are in trial order.  [f] runs concurrently with itself when
    the pool has more than one job: it must only mutate its own trial's
    state (the trial's [rng], its oracle and workspace, locals).
    [?oracle] (default [Stream]) picks the per-trial oracle construction;
    within a kind, results remain bit-identical at any job count. *)

val accept_rate :
  pool:Parkit.Pool.t ->
  ?oracle:oracle_kind ->
  rng:Randkit.Rng.t ->
  trials:int ->
  pmf:Pmf.t ->
  (trial -> Verdict.t) ->
  float
(** The fraction of accepting trials of {!run_trials}. *)

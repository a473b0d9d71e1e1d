(** Experiment harness: repeated independent tester trials against known
    ground truth.

    Each trial gets a generator split off the caller's
    ([Randkit.Rng.split] seeds it from the parent's next output, so no two
    trials read one stream at any offset) and a fresh oracle, so trials
    are statistically independent yet the whole experiment is
    reproducible from one seed.  Trials run on the [Parkit] pool the caller passes as
    [~pool] (the CLI and bench runner open one sized by [--jobs]).  The
    generators are split sequentially *before* dispatch and the O(n) split
    tree is built once per PMF and shared read-only, so results are
    bit-identical at any job count — trial [i] sees the same generator
    stream whether it runs first, last, or on another domain. *)

type trial = {
  rng : Randkit.Rng.t;
  oracle : Poissonize.oracle;
      (** The counts path ([Poissonize.counts_of_tree_ws]): count vectors
          drawn by binomial splitting over the shared split tree, O(K
          log(n/K)) per call whatever the sample budget.  Arrays it
          returns are views into [ws], overwritten by the oracle's next
          call — [Array.copy] anything retained across calls (or across
          trials).  The draw streams are identical to an allocating
          [Poissonize.counts_of_tree] oracle's. *)
  ws : Workspace.t;
      (** The running domain's workspace, shared by every trial scheduled
          onto that domain (strictly one at a time); testers accept it to
          reuse per-cell statistic buffers too (e.g.
          [Hist_tester.test ~ws]). *)
}

val run_trials :
  pool:Parkit.Pool.t ->
  rng:Randkit.Rng.t ->
  trials:int ->
  pmf:Pmf.t ->
  (trial -> 'a) ->
  'a array
(** Results are in trial order.  [f] runs concurrently with itself when
    the pool has more than one job: it must only mutate its own trial's
    state (the trial's [rng], its oracle and workspace, locals).  Results
    are bit-identical at any job count. *)

val accept_rate :
  pool:Parkit.Pool.t ->
  rng:Randkit.Rng.t ->
  trials:int ->
  pmf:Pmf.t ->
  (trial -> Verdict.t) ->
  float
(** The fraction of accepting trials of {!run_trials}. *)

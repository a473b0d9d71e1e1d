(** The alias-stream trial path: each trial's oracle draws its samples
    one at a time from a shared alias table, Θ(m) per call.  It samples
    the law of {!Harness}'s split-tree oracle with different generator
    consumption, so the two are compared distributionally (count
    marginals, verdict rates), never bit for bit.  Trial [i] keeps the
    harness's pre-split generator, so it draws what the harness drew
    when this path was its default.  Cross-checking only. *)

val of_alias : Randkit.Rng.t -> Alias.t -> Poissonize.oracle
(** An oracle drawing m samples one at a time from a shared alias table,
    Θ(m) per call; every call allocates a fresh result array. *)

val of_alias_ws : Workspace.t -> Randkit.Rng.t -> Alias.t -> Poissonize.oracle
(** [of_alias]'s draw stream, allocation-free: arrays it returns are
    views into [ws], overwritten by the oracle's next call. *)

val run_trials :
  pool:Parkit.Pool.t ->
  rng:Randkit.Rng.t ->
  trials:int ->
  pmf:Pmf.t ->
  (Harness.trial -> 'a) ->
  'a array
(** [Harness.run_trials] with each trial's oracle replaced by
    [of_alias_ws] over one alias table of [pmf]. *)

val accept_rate :
  pool:Parkit.Pool.t ->
  rng:Randkit.Rng.t ->
  trials:int ->
  pmf:Pmf.t ->
  (Harness.trial -> Verdict.t) ->
  float
(** [Harness.accept_rate] over the trials of {!run_trials}. *)

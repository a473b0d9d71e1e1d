(** The determinism contract on a concrete corpus: ingest the values
    single-process, then round-robin across shard states built one per
    pool domain, merge under the left-fold and the balanced-tree
    topology, and compare counts, statistics and verdicts bit for bit.
    The production service never merges (it adds every shard's traffic
    into one accumulator); this is the sharded reference the E20 gate
    and the service tests hold it to. *)

module Suff_fold : sig
  val reduce : Suffstat.t array -> Suffstat.t
  val tree_reduce : Suffstat.t array -> Suffstat.t
end
(** {!Numkit.Mergeable.Fold} over {!Suffstat}. *)

val shard_states :
  pool:Parkit.Pool.t ->
  part:Partition.t ->
  shards:int ->
  int array ->
  Suffstat.t array
(** Shard [s] ingests values [s], [s + shards], [s + 2·shards], … in
    order, on its own pool domain (shard-per-domain). *)

type replay_report = {
  shards : int;
  total : int;
  single_verdict : Verdict.t;
  single_z : float;
  fold_verdict : Verdict.t;
  fold_z : float;
  tree_verdict : Verdict.t;
  tree_z : float;
  identical : bool;
      (** merged counts, statistics and verdicts all bit-equal to the
          single-process run *)
}

val replay :
  pool:Parkit.Pool.t ->
  part:Partition.t ->
  dstar:Pmf.t ->
  eps:float ->
  shards:int ->
  int array ->
  replay_report
(** Single-process ingest against {!shard_states} merged by both
    {!Suff_fold} topologies, the shards built on [pool].
    @raise Invalid_argument on an empty corpus or [shards < 1]. *)

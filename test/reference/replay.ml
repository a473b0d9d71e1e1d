module Suff_fold = Numkit.Mergeable.Fold (Suffstat)

(* Round-robin sharding, intra-shard order preserved; each shard's state
   is built on its own pool domain. *)
let shard_states ~pool ~part ~shards values =
  Parkit.Pool.init pool shards (fun s ->
      let st = Suffstat.create ~part in
      let i = ref s in
      while !i < Array.length values do
        Suffstat.observe st values.(!i);
        i := !i + shards
      done;
      st)

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
}

let replay ?pool ~part ~dstar ~eps ~shards values =
  if shards < 1 then invalid_arg "Replay.replay: shards < 1";
  if Array.length values = 0 then invalid_arg "Replay.replay: empty corpus";
  let pool =
    match pool with Some p -> p | None -> Parkit.Pool.get_default ()
  in
  let single = Suffstat.create ~part in
  Suffstat.observe_all single values;
  let parts = shard_states ~pool ~part ~shards values in
  let z_and_verdict st =
    let stat = Suffstat.statistic st ~dstar ~eps in
    let threshold = Chi2stat.accept_threshold ~m:stat.Chi2stat.m ~eps in
    ( stat.Chi2stat.z,
      if stat.Chi2stat.z <= threshold then Verdict.Accept else Verdict.Reject )
  in
  let folded = Suff_fold.reduce parts in
  let treed = Suff_fold.tree_reduce parts in
  let single_z, single_verdict = z_and_verdict single in
  let fold_z, fold_verdict = z_and_verdict folded in
  let tree_z, tree_verdict = z_and_verdict treed in
  let identical =
    Suffstat.equal single folded && Suffstat.equal single treed
    && Float.equal single_z fold_z
    && Float.equal single_z tree_z
    && Verdict.equal single_verdict fold_verdict
    && Verdict.equal single_verdict tree_verdict
  in
  {
    shards;
    total = Array.length values;
    single_verdict;
    single_z;
    fold_verdict;
    fold_z;
    tree_verdict;
    tree_z;
    identical;
  }

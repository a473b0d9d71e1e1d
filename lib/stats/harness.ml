type trial = {
  rng : Randkit.Rng.t;
  oracle : Poissonize.oracle;
  ws : Workspace.t;
}

type oracle_kind = Stream | Counts

let oracle_kind_of_string = function
  | "stream" -> Some Stream
  | "counts" -> Some Counts
  | _ -> None

let oracle_kind_to_string = function Stream -> "stream" | Counts -> "counts"

(* One generator per trial, split off *sequentially before dispatch*: the
   child streams — and therefore every trial's samples — are fixed by the
   seed alone, so a parallel run is bit-identical to a sequential one
   regardless of how the pool schedules the trials. *)
let split_rngs ~rng ~trials =
  let rngs = Array.make trials rng in
  for i = 0 to trials - 1 do
    rngs.(i) <- Randkit.Rng.split rng
  done;
  rngs

let run_trials ?pool ?(oracle = Stream) ~rng ~trials ~pmf f =
  let pool =
    match pool with Some p -> p | None -> Parkit.Pool.get_default ()
  in
  (* The O(n) sampling structure — alias table on the stream path, split
     tree on the counts path — depends only on the PMF: build it once and
     share it read-only across all trials (and domains).  Each trial's
     oracle draws into the workspace of whichever domain runs it — trials
     on a domain run strictly in sequence, so the buffers are reused, not
     raced — and the draw streams are fixed by the pre-split generators
     alone, so results stay bit-identical at any job count.  Building
     either structure consumes no randomness, so trial [i]'s generator is
     the same under both kinds; the *consumption* of that generator
     differs between kinds (equivalence between them is distributional,
     not bit-exact). *)
  let make_oracle =
    match oracle with
    | Stream ->
        let alias = Alias.of_pmf pmf in
        fun ws child -> Poissonize.of_alias_ws ws child alias
    | Counts ->
        let tree = Split_tree.of_pmf pmf in
        fun ws child -> Poissonize.counts_of_tree_ws ws child tree
  in
  let rngs = split_rngs ~rng ~trials in
  Parkit.Pool.map pool
    (fun child ->
      let ws = Workspace.domain_local () in
      f { rng = child; oracle = make_oracle ws child; ws })
    rngs

let accept_rate ?oracle ~rng ~trials ~pmf decide =
  let verdicts = run_trials ?oracle ~rng ~trials ~pmf decide in
  let accepts =
    Array.fold_left
      (fun acc v -> if Verdict.equal v Verdict.Accept then acc + 1 else acc)
      0 verdicts
  in
  float_of_int accepts /. float_of_int trials

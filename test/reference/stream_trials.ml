let of_alias rng alias =
  let n = Alias.size alias in
  {
    Poissonize.n;
    exact = (fun m -> Alias.draw_counts alias rng m);
    poissonized =
      (fun mean ->
        (* Draw m' ~ Poisson(mean), then m' iid samples: per-element counts
           are then independent Poisson(mean * D(i)) — the paper's trick. *)
        let m' = Randkit.Sampler.poisson rng ~mean in
        Alias.draw_counts alias rng m');
    stream = (fun m -> Alias.draw_many alias rng m);
  }

let of_alias_ws ws rng alias =
  let n = Alias.size alias in
  let counts_for m =
    let counts = Workspace.counts ws n in
    Alias.draw_counts_into alias rng ~counts m;
    counts
  in
  {
    Poissonize.n;
    exact = counts_for;
    poissonized =
      (fun mean -> counts_for (Randkit.Sampler.poisson rng ~mean));
    stream =
      (fun m ->
        let out = Workspace.samples ws m in
        Alias.draw_many_into alias rng ~out m;
        out);
  }

(* The harness builds its split tree and each trial's counts oracle
   without consuming randomness, so swapping the oracle leaves trial [i]
   with the generator the stream path always gave it. *)
let with_stream alias (t : Harness.trial) =
  { t with Harness.oracle = of_alias_ws t.Harness.ws t.Harness.rng alias }

let run_trials ~pool ~rng ~trials ~pmf f =
  let alias = Alias.of_pmf pmf in
  Harness.run_trials ~pool ~rng ~trials ~pmf (fun t -> f (with_stream alias t))

let accept_rate ~pool ~rng ~trials ~pmf decide =
  let alias = Alias.of_pmf pmf in
  Harness.accept_rate ~pool ~rng ~trials ~pmf (fun t ->
      decide (with_stream alias t))

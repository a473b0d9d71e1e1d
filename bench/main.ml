(* Experiment harness: regenerates every experiment in EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe                 # all experiments, quick mode
     dune exec bench/main.exe -- e1 e4        # a subset
     dune exec bench/main.exe -- --full       # full-size sweeps
     dune exec bench/main.exe -- --seed 7 e10 # different seed
     dune exec bench/main.exe -- --jobs 4 e1  # trial loops on 4 domains

   An unknown option or experiment name, or a malformed value, is a usage
   error (exit 2) before any experiment runs. *)

let experiments =
  [
    ("e1", E01_scaling_n.run);
    ("e2", E02_scaling_k.run);
    ("e3", E03_comparison.run);
    ("e4", E04_paninski.run);
    ("e5", E05_supp_size.run);
    ("e6", E06_runtime.run);
    ("e7", E07_approx_part.run);
    ("e8", E08_learner.run);
    ("e9", E09_adk15.run);
    ("e10", E10_sieve_ablation.run);
    ("e11", E11_model_select.run);
    ("e12", E12_selectivity.run);
    ("e13", E13_closest_dp.run);
    ("e14", E14_kmodal.run);
    ("e15", E15_closeness.run);
    ("e16", E16_structured.run);
    ("e17", E17_parallel.run);
    ("e18", E18_closest.run);
    ("e19", E19_counts.run);
    ("e20", E20_merge.run);
    ("e21", E21_serve.run);
    ("e22", E22_net.run);
  ]

let () =
  let full = ref false and seed = ref 1 in
  (* Each trial sweep opens its own pool of this size, so experiments
     that run no trials never start a second domain. *)
  let jobs = ref (Parkit.Pool.default_jobs ()) in
  let selected = ref [] in
  let positive_jobs j =
    if j > 0 && j <= Parkit.Pool.max_jobs then jobs := j
    else
      raise
        (Arg.Bad
           (Printf.sprintf "bad --jobs %d (an integer in [1, %d])" j
              Parkit.Pool.max_jobs))
  in
  let select name =
    match List.assoc_opt (String.lowercase_ascii name) experiments with
    | Some f -> selected := (name, f) :: !selected
    | None ->
        raise
          (Arg.Bad (Printf.sprintf "unknown experiment %S (known: e1..e22)" name))
  in
  Arg.parse
    (Arg.align
       [
         ("--full", Arg.Set full, " Full-size sweeps");
         ("--seed", Arg.Set_int seed, "N Base seed (default 1)");
         ( "--jobs",
           Arg.Int positive_jobs,
           "N Domains per trial sweep (default: the recommended count)" );
       ])
    select "main.exe [--full] [--seed N] [--jobs N] [EXPERIMENT...]";
  let mode = { Exp_common.quick = not !full; seed = !seed; jobs = !jobs } in
  let to_run =
    match !selected with [] -> experiments | names -> List.rev names
  in
  Format.printf "histotest experiment harness (%s mode, seed %d, jobs %d)@."
    (if !full then "full" else "quick")
    !seed !jobs;
  let t0 = Sys.time () in
  List.iter (fun (_, f) -> f mode) to_run;
  Format.printf "@.total time: %.1f s@." (Sys.time () -. t0)

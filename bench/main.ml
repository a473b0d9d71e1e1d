(* Experiment harness: regenerates every experiment in EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe                 # all experiments, quick mode
     dune exec bench/main.exe -- e1 e4        # a subset
     dune exec bench/main.exe -- --full       # full-size sweeps
     dune exec bench/main.exe -- --seed 7 e10 # different seed
     dune exec bench/main.exe -- --jobs 4 e1  # trial loops on 4 domains
     dune exec bench/main.exe -- --oracle counts e1
                                              # count-vector oracle path *)

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
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let opt_value name =
    let rec find = function
      | x :: v :: _ when x = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  (* A malformed value is a usage error (exit 2), like an unknown
     --oracle, not an uncaught exception. *)
  let int_opt name ~valid ~expected =
    match opt_value name with
    | None -> None
    | Some v -> (
        match int_of_string_opt v with
        | Some i when valid i -> Some i
        | _ ->
            Format.eprintf "bad %s %S (%s)@." name v expected;
            exit 2)
  in
  let seed =
    Option.value ~default:1
      (int_opt "--seed" ~valid:(fun _ -> true) ~expected:"an integer")
  in
  (match
     int_opt "--jobs" ~valid:(fun j -> j > 0) ~expected:"a positive integer"
   with
  | Some jobs -> Parkit.Pool.set_default ~jobs
  | None -> ());
  let oracle =
    match opt_value "--oracle" with
    | None -> Harness.Stream
    | Some v -> (
        match Harness.oracle_kind_of_string v with
        | Some kind -> kind
        | None ->
            Format.eprintf "unknown oracle %S (stream or counts)@." v;
            exit 2)
  in
  let selected =
    let rec strip = function
      | ("--seed" | "--jobs" | "--oracle") :: _ :: rest -> strip rest
      | "--full" :: rest -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let mode = { Exp_common.quick = not full; seed; oracle } in
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt (String.lowercase_ascii name) experiments with
            | Some f -> Some (name, f)
            | None ->
                Format.eprintf "unknown experiment %S (known: e1..e22)@." name;
                None)
          names
  in
  Format.printf
    "histotest experiment harness (%s mode, seed %d, jobs %d, oracle %s)@."
    (if full then "full" else "quick")
    seed
    (Parkit.Pool.jobs (Parkit.Pool.get_default ()))
    (Harness.oracle_kind_to_string oracle);
  let t0 = Sys.time () in
  List.iter (fun (_, f) -> f mode) to_run;
  Format.printf "@.total time: %.1f s@." (Sys.time () -. t0)

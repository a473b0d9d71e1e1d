(* histotest command-line interface.

   Examples:
     histotest test --family staircase:4 --domain 4096 --pieces 4 --eps 0.25
     histotest test --family bimodal --tester cdgr16 --trials 5
     histotest select --family staircase:8 --domain 2048 --eps 0.2
     histotest dist --family zipf:1.2 --domain 1024 --pieces 8
     histotest demo-lb --domain 4096 --pieces 33 *)

open Cmdliner

let n_arg =
  Arg.(value & opt int 4096 & info [ "n"; "domain" ] ~docv:"N" ~doc:"Domain size.")

let k_arg =
  Arg.(value & opt int 4 & info [ "k"; "pieces" ] ~docv:"K" ~doc:"Histogram pieces.")

let eps_arg =
  Arg.(
    value
    & opt float 0.25
    & info [ "eps" ] ~docv:"EPS" ~doc:"Distance parameter.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let family_arg =
  Arg.(
    value
    & opt string "staircase:4"
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:
          "Distribution under test: uniform, staircase:K, khist:K, zipf:S, \
           geometric:R, comb:T, bimodal, paninski:EPS, spiked:S, monotone:P.")

let trials_arg =
  Arg.(
    value & opt int 1 & info [ "trials" ] ~docv:"T" ~doc:"Independent trials.")

let jobs_arg =
  let non_negative =
    let parse s =
      match int_of_string_opt s with
      | Some j when j >= 0 -> Ok j
      | _ -> Error (`Msg ("expected a non-negative integer, got " ^ s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value & opt non_negative 0
    & info [ "jobs" ] ~docv:"JOBS"
        ~doc:
          "Domains for the trial loop (results are bit-identical at any \
           value). 0 means all recommended cores.")

(* The pool a command's trial loop runs on: [--jobs], or every
   recommended core for 0. *)
let with_jobs jobs f =
  Parkit.Pool.with_pool
    ~jobs:(if jobs > 0 then jobs else Parkit.Pool.default_jobs ())
    f

let oracle_arg =
  Arg.(
    value
    & opt (enum [ ("stream", Harness.Stream); ("counts", Harness.Counts) ])
        Harness.Stream
    & info [ "oracle" ] ~docv:"ORACLE"
        ~doc:
          "Per-trial sample oracle: $(b,stream) (alias-table draws, the \
           bit-exact reference) or $(b,counts) (split-tree count vectors, \
           per-trial cost independent of the sample budget; same law, \
           different generator stream).")

let paper_arg =
  Arg.(
    value & flag
    & info [ "paper" ]
        ~doc:"Use the paper's literal constants instead of the practical \
              profile (enormous sample budgets).  Changes Algorithm 1, \
              cdgr16's testing stage, uniformity and model selection; \
              ilr12 and the learner read no profile constant.")

let tester_arg =
  Arg.(
    value
    & opt string "algorithm1"
    & info [ "tester" ] ~docv:"TESTER"
        ~doc:"One of algorithm1, ilr12, cdgr16, uniformity.")

let config_of_paper paper =
  if paper then Histotest.Config.paper else Histotest.Config.default

let with_family spec n seed f =
  let rng = Randkit.Rng.create ~seed in
  match Families.of_spec ~n ~rng spec with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1
  | Ok pmf -> f pmf rng

(* --- test command --- *)

let run_test family n k eps seed trials paper tester_name jobs oracle =
  with_family family n seed (fun pmf rng ->
      let config = config_of_paper paper in
      let tester =
        List.find_opt
          (fun t -> String.equal t.Histotest.Tester.name tester_name)
          (Histotest.Tester.all ~config ()
          @ [ Histotest.Tester.uniformity ~config () ])
      in
      match tester with
      | None ->
          prerr_endline ("error: unknown tester " ^ tester_name);
          1
      | Some t ->
          Format.printf "family=%s n=%d k=%d eps=%g tester=%s@." family n k eps
            t.Histotest.Tester.name;
          Format.printf "exact tv(D, H_k) = %.4f@."
            (Closest.tv_to_hk pmf ~k);
          Format.printf "planned budget   = %d samples@."
            (t.Histotest.Tester.budget ~n ~k ~eps);
          (* The harness pre-splits generators, so output is identical
             at any job count. *)
          let verdicts =
            with_jobs jobs (fun pool ->
                Harness.run_trials ~pool ~oracle ~rng ~trials ~pmf
                  (fun trial ->
                    t.Histotest.Tester.run trial.Harness.oracle ~k ~eps))
          in
          let accepts = ref 0 in
          Array.iteri
            (fun i v ->
              if Verdict.equal v Verdict.Accept then incr accepts;
              Format.printf "trial %d: %a@." (i + 1) Verdict.pp v)
            verdicts;
          if trials > 1 then
            Format.printf "accepted %d/%d@." !accepts trials;
          0)

let test_cmd =
  let doc = "Run a histogram tester against a synthetic distribution." in
  Cmd.v
    (Cmd.info "test" ~doc)
    Term.(
      const run_test $ family_arg $ n_arg $ k_arg $ eps_arg $ seed_arg
      $ trials_arg $ paper_arg $ tester_arg $ jobs_arg $ oracle_arg)

(* --- select command --- *)

let run_select family n eps seed k_max paper =
  with_family family n seed (fun pmf rng ->
      let config = config_of_paper paper in
      let result =
        Histotest.Model_select.run ~config
          ~make_oracle:(fun () -> Poissonize.of_pmf (Randkit.Rng.split rng) pmf)
          ~k_max ~eps ()
      in
      List.iter
        (fun (k, v) -> Format.printf "probe k=%-5d %a@." k Verdict.pp v)
        result.Histotest.Model_select.probes;
      (match result.Histotest.Model_select.k_hat with
      | Some k -> Format.printf "selected k = %d@." k
      | None -> Format.printf "no k up to %d accepted@." k_max);
      Format.printf "samples used: %d@."
        result.Histotest.Model_select.samples_used;
      0)

let k_max_arg =
  Arg.(
    value & opt int 256 & info [ "k-max" ] ~docv:"KMAX" ~doc:"Search limit.")

let select_cmd =
  let doc = "Find the smallest k accepted by the tester (doubling search)." in
  Cmd.v
    (Cmd.info "select" ~doc)
    Term.(
      const run_select $ family_arg $ n_arg $ eps_arg $ seed_arg $ k_max_arg
      $ paper_arg)

(* --- dist command --- *)

let run_dist family n k seed =
  with_family family n seed (fun pmf _rng ->
      Format.printf "pieces(D)        = %d@." (Khist.pieces_of_pmf pmf);
      Format.printf "tv(D, H_%d)      = %.6f@." k (Closest.tv_to_hk pmf ~k);
      Format.printf "modality(D)      = %d@." (Modal.direction_changes pmf);
      let _, witness = Closest.witness pmf ~k in
      Format.printf "witness pieces   = %d@." (Khist.pieces witness);
      0)

let dist_cmd =
  let doc = "Exact distance from a synthetic distribution to H_k (DP)." in
  Cmd.v
    (Cmd.info "dist" ~doc)
    Term.(const run_dist $ family_arg $ n_arg $ k_arg $ seed_arg)

(* --- demo-lb command --- *)

let run_demo_lb n k seed =
  let rng = Randkit.Rng.create ~seed in
  let (small, s_small), (large, s_large), m =
    Histotest.Lowerbound.supp_size_pair ~k ~n ~rng
  in
  Format.printf "support-size reduction at k=%d: m=%d@." k m;
  Format.printf "small side: support %d, pieces %d, tv to H_k %.4f@." s_small
    (Khist.pieces_of_pmf small)
    (Closest.tv_to_hk small ~k);
  Format.printf "large side: support %d, cover %d, tv to H_k %.4f@." s_large
    (Histotest.Lowerbound.cover_of_support large)
    (Closest.tv_to_hk large ~k);
  0

let demo_lb_cmd =
  let doc = "Materialize a support-size lower-bound instance pair." in
  Cmd.v
    (Cmd.info "demo-lb" ~doc)
    Term.(const run_demo_lb $ n_arg $ k_arg $ seed_arg)

(* --- closeness command --- *)

let run_closeness fam1 fam2 n eps seed trials jobs =
  with_family fam1 n seed (fun p1 rng ->
      match Families.of_spec ~n ~rng fam2 with
      | Error msg ->
          prerr_endline ("error: " ^ msg);
          1
      | Ok p2 ->
          Format.printf "tv(%s, %s) = %.4f (ground truth)@." fam1 fam2
            (Distance.tv p1 p2);
          (* Two oracles per trial: split both generators sequentially
             before dispatch and share one alias table per side, exactly
             like the one-sample harness. *)
          let a1 = Alias.of_pmf p1 and a2 = Alias.of_pmf p2 in
          let pairs = Array.make trials (rng, rng) in
          for i = 0 to trials - 1 do
            let r1 = Randkit.Rng.split rng in
            let r2 = Randkit.Rng.split rng in
            pairs.(i) <- (r1, r2)
          done;
          let outs =
            with_jobs jobs (fun pool ->
                Parkit.Pool.map pool
                  (fun (r1, r2) ->
                    Histotest.Closeness.run (Poissonize.of_alias r1 a1)
                      (Poissonize.of_alias r2 a2) ~eps)
                  pairs)
          in
          let accepts = ref 0 in
          Array.iteri
            (fun i out ->
              if Verdict.equal out.Histotest.Closeness.verdict Verdict.Accept
              then incr accepts;
              Format.printf "trial %d: %a (Z = %.1f vs %.1f, %d samples)@."
                (i + 1) Verdict.pp out.Histotest.Closeness.verdict
                out.Histotest.Closeness.statistic
                out.Histotest.Closeness.threshold
                out.Histotest.Closeness.samples_used)
            outs;
          if trials > 1 then Format.printf "accepted %d/%d@." !accepts trials;
          0)

let family2_arg =
  Arg.(
    value
    & opt string "uniform"
    & info [ "family2" ] ~docv:"FAMILY"
        ~doc:"Second distribution (same syntax as --family).")

let closeness_cmd =
  let doc = "Two-sample closeness test between two synthetic families." in
  Cmd.v
    (Cmd.info "closeness" ~doc)
    Term.(
      const run_closeness $ family_arg $ family2_arg $ n_arg $ eps_arg
      $ seed_arg $ trials_arg $ jobs_arg)

(* --- estimate command --- *)

let run_estimate family n seed samples =
  with_family family n seed (fun pmf rng ->
      let oracle = Poissonize.of_pmf rng pmf in
      let counts = oracle.Poissonize.exact samples in
      let f = Fingerprint.of_counts counts in
      Format.printf "samples            = %d@." (Fingerprint.samples f);
      Format.printf "distinct seen      = %d (true support %d)@."
        (Fingerprint.distinct f) (Pmf.support_size pmf);
      Format.printf "chao1 support est  = %.1f@."
        (Fingerprint.chao1_support_estimate f);
      Format.printf "missing mass (GT)  = %.4f@."
        (Fingerprint.good_turing_missing_mass f);
      Format.printf "l2 norm^2 estimate = %.6f (true %.6f)@."
        (Fingerprint.l2_norm_sq_estimate f)
        (Numkit.Kahan.sum_f n (fun i ->
             let p = Pmf.get pmf i in
             p *. p));
      Format.printf "entropy (MM)       = %.4f nats@."
        (Fingerprint.entropy_miller_madow counts);
      0)

let samples_arg =
  Arg.(
    value & opt int 10_000
    & info [ "samples" ] ~docv:"M" ~doc:"Sample budget.")

let estimate_cmd =
  let doc =
    "Symmetric-property estimates (support, missing mass, l2, entropy)      from samples of a synthetic family."
  in
  Cmd.v
    (Cmd.info "estimate" ~doc)
    Term.(const run_estimate $ family_arg $ n_arg $ seed_arg $ samples_arg)

(* --- test-file command --- *)

let read_dataset path =
  let ic = open_in path in
  let values = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" then values := int_of_string line :: !values
     done
   with
  | End_of_file -> close_in ic
  | e ->
      close_in ic;
      raise e);
  List.rev !values

let run_test_file path domain k eps seed trials jobs oracle =
  match read_dataset path with
  | exception Sys_error msg ->
      prerr_endline ("error: " ^ msg);
      1
  | exception Failure _ ->
      prerr_endline "error: dataset must contain one integer per line";
      1
  | [] ->
      prerr_endline "error: empty dataset";
      1
  | values ->
      let max_v = List.fold_left max 0 values in
      let n = if domain > 0 then domain else max_v + 1 in
      if List.exists (fun v -> v < 0 || v >= n) values then begin
        prerr_endline "error: dataset values outside [0, domain)";
        1
      end
      else begin
        (* The paper's framing: the dataset IS the population; testers get
           iid samples from its record distribution. *)
        let counts = Array.make n 0 in
        List.iter (fun v -> counts.(v) <- counts.(v) + 1) values;
        let population = Empirical.of_counts counts in
        let rng = Randkit.Rng.create ~seed in
        let records = List.length values in
        Format.printf "dataset: %d records over [0, %d)@." records n;
        Format.printf "exact tv(dataset, H_%d) = %.4f@." k
          (Closest.tv_to_hk population ~k);
        (* Sampling-based testing treats the dataset as the population; it
           is the right tool only in the sublinear regime, where the
           dataset dwarfs the tester's budget.  Below that, the per-record
           multinomial noise is genuine chi-square distance and the exact
           DP answer above is what a user should read. *)
        let plan = Histotest.Hist_tester.plan ~n ~k ~eps () in
        if plan > records / 2 then begin
          Format.printf
            "note: the tester would draw %d samples but the dataset has only %d records;@."
            plan records;
          Format.printf
            "the sublinear sampling model does not apply; use the exact distance above@.";
          Format.printf
            "(accept iff it is well below your eps = %g).@." eps
        end;
        let reports =
          with_jobs jobs (fun pool ->
              Harness.run_trials ~pool ~oracle ~rng ~trials ~pmf:population
                (fun trial ->
                  Histotest.Hist_tester.run trial.Harness.oracle ~k ~eps))
        in
        let accepts = ref 0 in
        Array.iteri
          (fun i report ->
            if
              Verdict.equal report.Histotest.Hist_tester.verdict
                Verdict.Accept
            then
              incr accepts;
            Format.printf "trial %d:@.%a@." (i + 1)
              Histotest.Hist_tester.pp_report report)
          reports;
        if trials > 1 then Format.printf "accepted %d/%d@." !accepts trials;
        0
      end

let file_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH" ~doc:"Dataset file, one integer per line.")

let domain_opt_arg =
  Arg.(
    value & opt int 0
    & info [ "n"; "domain" ] ~docv:"N"
        ~doc:"Domain size (default: max value + 1).")

let test_file_cmd =
  let doc =
    "Test whether a dataset's record distribution is a k-histogram      (samples are drawn from the file's empirical distribution, the      paper's dataset model)."
  in
  Cmd.v
    (Cmd.info "test-file" ~doc)
    Term.(
      const run_test_file $ file_arg $ domain_opt_arg $ k_arg $ eps_arg
      $ seed_arg $ trials_arg $ jobs_arg $ oracle_arg)

let main_cmd =
  let doc = "testing histogram distributions (PODS reproduction)" in
  Cmd.group
    (Cmd.info "histotest" ~version:"1.0.0" ~doc)
    [
      test_cmd; select_cmd; dist_cmd; demo_lb_cmd; closeness_cmd;
      estimate_cmd; test_file_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)

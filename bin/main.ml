(* histotest command-line interface.

   Examples:
     histotest test --family staircase:4 --domain 4096 --pieces 4 --eps 0.25
     histotest test --family bimodal --tester cdgr16 --trials 5
     histotest select --family staircase:8 --domain 2048 --eps 0.2
     histotest dist --family zipf:1.2 --domain 1024 --pieces 8
     histotest demo-lb --domain 4096 --pieces 33 *)

open Cmdliner

(* [conv] restricted to the values [ok] admits: anything else is a
   command-line error (exit 124) naming the range, never an uncaught
   exception further in. *)
let checked conv ok ~range =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" range s))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive = checked Arg.int (fun k -> k >= 1) ~range:"a positive integer"

(* Every command holds its domain as dense arrays (the pmf, counts, the
   sampler's tables), so it is bounded: 2^24 values.  A synthetic
   domain above it is a command-line error; a small or negative one is
   the family's to refuse (exit 1). *)
let max_domain = 1 lsl 24

let n_arg =
  Arg.(
    value
    & opt (checked int (fun n -> n <= max_domain) ~range:"at most 2^24")
        4096
    & info [ "n"; "domain" ] ~docv:"N" ~doc:"Domain size, at most 2^24.")

let k_arg =
  Arg.(
    value & opt positive 4
    & info [ "k"; "pieces" ] ~docv:"K" ~doc:"Histogram pieces (at least 1).")

let eps_arg =
  Arg.(
    value
    & opt (checked float (fun e -> e > 0. && e <= 1.) ~range:"a number in (0, 1]")
        0.25
    & info [ "eps" ] ~docv:"EPS" ~doc:"Distance parameter, in (0, 1].")

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

(* The harness sizes per-trial arrays by the count, so it is bounded
   before any is made. *)
let trials_arg =
  let ok t = t >= 1 && t <= 1_000_000 in
  Arg.(
    value
    & opt (checked int ok ~range:"an integer in [1, 10^6]") 1
    & info [ "trials" ] ~docv:"T" ~doc:"Independent trials, from 1 to 10^6.")

(* The runtime starts at most [Parkit.Pool.max_jobs] domains, so a
   larger count is refused before any starts. *)
let jobs_arg =
  let max = Parkit.Pool.max_jobs in
  Arg.(
    value
    & opt
        (checked int
           (fun j -> j >= 0 && j <= max)
           ~range:(Printf.sprintf "an integer in [0, %d]" max))
        0
    & info [ "jobs" ] ~docv:"JOBS"
        ~doc:
          (Printf.sprintf
             "Domains for the trial loop, at most %d (results are \
              bit-identical at any value). 0 means all recommended cores."
             max))

(* The pool a command's trial loop runs on: [--jobs], or every
   recommended core for 0. *)
let with_jobs jobs f =
  Parkit.Pool.with_pool
    ~jobs:(if jobs > 0 then jobs else Parkit.Pool.default_jobs ())
    f

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

(* Prints each trial's outcome with [print], then, over several
   trials, how many accepted; the command's exit status. *)
let report_trials verdict print outs =
  Array.iteri (fun i out -> print (i + 1) out) outs;
  let trials = Array.length outs in
  let accepts =
    Array.fold_left
      (fun acc out ->
        if Verdict.equal (verdict out) Verdict.Accept then acc + 1 else acc)
      0 outs
  in
  if trials > 1 then Format.printf "accepted %d/%d@." accepts trials;
  0

(* --- test command --- *)

(* A k-histogram over [n] elements has at most [n] pieces; the testers
   and the DP reject a larger [k] with an exception, so it is refused
   here with one line, once both numbers are known. *)
let pieces_fit ~k ~n =
  if k <= n then true
  else begin
    Printf.eprintf "error: --pieces %d is above the domain size %d\n" k n;
    false
  end

let run_test family n k eps seed trials paper tester_name jobs =
  if not (pieces_fit ~k ~n) then 1
  else
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
            Format.printf "family=%s n=%d k=%d eps=%g tester=%s@." family n k
              eps t.Histotest.Tester.name;
            Format.printf "exact tv(D, H_k) = %.4f@."
              (Closest.tv_to_hk pmf ~k);
            Format.printf "planned budget   = %d samples@."
              (t.Histotest.Tester.budget ~n ~k ~eps);
            (* The harness pre-splits generators, so output is identical
               at any job count. *)
            let verdicts =
              with_jobs jobs (fun pool ->
                  Harness.run_trials ~pool ~rng ~trials ~pmf (fun trial ->
                      t.Histotest.Tester.run trial.Harness.oracle ~k ~eps))
            in
            report_trials Fun.id
              (fun i v -> Format.printf "trial %d: %a@." i Verdict.pp v)
              verdicts)

let test_cmd =
  let doc = "Run a histogram tester against a synthetic distribution." in
  Cmd.v
    (Cmd.info "test" ~doc)
    Term.(
      const run_test $ family_arg $ n_arg $ k_arg $ eps_arg $ seed_arg
      $ trials_arg $ paper_arg $ tester_arg $ jobs_arg)

(* --- select command --- *)

let run_select family n eps seed k_max paper =
  with_family family n seed (fun pmf rng ->
      let config = config_of_paper paper in
      let tree = Split_tree.of_pmf pmf in
      let result =
        Histotest.Model_select.run ~config
          ~make_oracle:(fun () ->
            Poissonize.counts_of_tree (Randkit.Rng.split rng) tree)
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
    value & opt positive 256
    & info [ "k-max" ] ~docv:"KMAX" ~doc:"Search limit (at least 1).")

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

(* The instance embeds a support of up to m elements, so the domain
   must hold m of them. *)
let run_demo_lb n k seed =
  let m = Histotest.Lowerbound.supp_size_m ~k in
  if n < m then (
    Printf.eprintf "error: --domain %d is below the instance size m = %d\n" n m;
    1)
  else
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
          (* The harness's trials draw from [p1]; each trial's second
             oracle draws from one shared split tree of [p2] with a
             generator split off the trial's own, so the two samples
             read separate streams (Rng.split seeds the child from the
             parent's next output). *)
          let tree2 = Split_tree.of_pmf p2 in
          let outs =
            with_jobs jobs (fun pool ->
                Harness.run_trials ~pool ~rng ~trials ~pmf:p1 (fun t ->
                    let o2 =
                      Poissonize.counts_of_tree
                        (Randkit.Rng.split t.Harness.rng) tree2
                    in
                    Histotest.Closeness.run t.Harness.oracle o2 ~eps))
          in
          report_trials
            (fun out -> out.Histotest.Closeness.verdict)
            (fun i out ->
              Format.printf "trial %d: %a (Z = %.1f vs %.1f, %d samples)@." i
                Verdict.pp out.Histotest.Closeness.verdict
                out.Histotest.Closeness.statistic
                out.Histotest.Closeness.threshold
                out.Histotest.Closeness.samples_used)
            outs)

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
      let oracle = Poissonize.counts_of_tree rng (Split_tree.of_pmf pmf) in
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
    value & opt positive 10_000
    & info [ "samples" ] ~docv:"M" ~doc:"Sample budget (at least 1).")

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

let run_test_file path domain k eps seed trials jobs =
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
      (* the same bound as [n_arg]'s, met only once the data are read *)
      if n > max_domain then begin
        Printf.eprintf "error: domain %d is above the bound %d (2^24)\n" n
          max_domain;
        1
      end
      else if List.exists (fun v -> v < 0 || v >= n) values then begin
        prerr_endline "error: dataset values outside [0, domain)";
        1
      end
      else if not (pieces_fit ~k ~n) then 1
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
              Harness.run_trials ~pool ~rng ~trials ~pmf:population
                (fun trial ->
                  Histotest.Hist_tester.run trial.Harness.oracle ~k ~eps))
        in
        report_trials
          (fun r -> r.Histotest.Hist_tester.verdict)
          (fun i r ->
            Format.printf "trial %d:@.%a@." i Histotest.Hist_tester.pp_report r)
          reports
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
        ~doc:"Domain size (default: max value + 1; at most 2^24).")

let test_file_cmd =
  let doc =
    "Test whether a dataset's record distribution is a k-histogram      (samples are drawn from the file's empirical distribution, the      paper's dataset model)."
  in
  Cmd.v
    (Cmd.info "test-file" ~doc)
    Term.(
      const run_test_file $ file_arg $ domain_opt_arg $ k_arg $ eps_arg
      $ seed_arg $ trials_arg $ jobs_arg)

let main_cmd =
  let doc = "testing histogram distributions (PODS reproduction)" in
  Cmd.group
    (Cmd.info "histotest" ~version:"1.0.0" ~doc)
    [
      test_cmd; select_cmd; dist_cmd; demo_lb_cmd; closeness_cmd;
      estimate_cmd; test_file_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)

(* Shared plumbing for the experiment suite.

   Every experiment prints a self-contained table: the claim it reproduces,
   the workload, and the measured rows.  EXPERIMENTS.md records one
   reference run of each. *)

(* [jobs] sizes the pool each trial sweep opens; an experiment that runs
   no trials never starts a second domain. *)
type mode = {
  quick : bool;
  seed : int;
  oracle : Harness.oracle_kind;
  jobs : int;
}

let section ~id ~claim =
  Format.printf "@.=== %s ===@." id;
  Format.printf "%s@.@." claim

let row fmt = Format.printf fmt

let hline () =
  Format.printf "%s@." (String.make 72 '-')

(* One pool per sweep, [mode.jobs] domains (--jobs).  The harness
   pre-splits the generators and shares one sampling structure (alias
   table or split tree, per --oracle), so the measured rates are
   bit-identical at any job count within an oracle kind. *)
let accept_rate ~mode ~trials ~pmf run =
  let rng = Randkit.Rng.create ~seed:mode.seed in
  Parkit.Pool.with_pool ~jobs:mode.jobs (fun pool ->
      Harness.accept_rate ~pool ~oracle:mode.oracle ~rng ~trials ~pmf
        (fun trial -> run trial.Harness.oracle))

(* Error on a completeness/soundness pair: (rejection rate on yes,
   acceptance rate on no). *)
let error_pair ~mode ~trials ~yes ~no run =
  let a_yes = accept_rate ~mode ~trials ~pmf:yes run in
  let a_no = accept_rate ~mode ~trials ~pmf:no run in
  (1. -. a_yes, a_no)

let scaled_config factor =
  Histotest.Config.scale_budget Histotest.Config.default factor

let time_of f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

(* Wall-clock variant: Sys.time is CPU time summed over domains, which
   would hide any multicore speedup. *)
let wall_time_of f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* The host's usable core count as `nproc` reports it (it honours the
   process's CPU affinity), or the runtime's count when `nproc` cannot
   run.  Bench rows record it so a timing says what hardware it had. *)
let nproc () =
  let fallback = Domain.recommended_domain_count () in
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception Unix.Unix_error _ -> fallback
  | ic ->
      let n =
        try int_of_string_opt (String.trim (input_line ic))
        with End_of_file -> None
      in
      ignore (Unix.close_process_in ic);
      Option.value n ~default:fallback

(* Canonical instance pairs used across experiments: a k-staircase with
   well-separated levels (in H_k) against a 4k-piece comb (far from H_k at
   the experiment's eps). *)
let yes_instance ~n ~k ~seed =
  Families.staircase ~n ~k ~rng:(Randkit.Rng.create ~seed)

let no_instance ~n ~k =
  Families.comb ~n ~teeth:(2 * k)

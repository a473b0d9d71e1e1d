(* alg1-trials: Algorithm 1 trial ensembles on the counts-path oracle, the
   paper's pipeline with no serve layer in the way.  Trials come in
   rounds of two on the yes instance (a 4-step staircase, in H_4) and
   one on the no instance (an 8-tooth comb, far from H_4), each trial
   with its own generator split off one seeded stream, as
   [Harness.run_trials ~oracle:Counts] builds them: one shared split tree
   per instance, one workspace-backed oracle per trial. *)

let k = 4

type instance = {
  yes_tree : Split_tree.t;
  no_tree : Split_tree.t;
  ws : Workspace.t;
}

(* The set-up a trial ensemble pays once: the PMFs, their split trees,
   and a workspace sized to the domain.  The instances are fixed, like
   the serve hypotheses: the staircase's levels set how much work a
   trial does. *)
let build () =
  let yes =
    Families.staircase ~n:Gen.n ~k ~rng:(Randkit.Rng.create ~seed:Gen.hypothesis_seed)
  in
  let no = Families.comb ~n:Gen.n ~teeth:(2 * k) in
  let ws = Workspace.create () in
  ignore (Workspace.counts ws Gen.n : int array);
  { yes_tree = Split_tree.of_pmf yes; no_tree = Split_tree.of_pmf no; ws }

(* Trial [i] runs on the yes instance unless [i mod 3 = 2]. *)
let is_yes i = i mod 3 <> 2
let trial_stream ~seed = Gen.rng ~seed 21

let oracle inst ~yes rng =
  Poissonize.counts_of_tree_ws inst.ws rng
    (if yes then inst.yes_tree else inst.no_tree)

type result = {
  measures : (string * float) list;  (** setup_s, throughput, latency, RSS *)
  trials : int;
  yes_accept : float;
  no_accept : float;
  failed : int;
  elapsed_s : float;
}

(* Set-up time is timed in groups spread over the run, like the serve
   workloads' spawns: one before the trials and, once the peak resident
   set is read, one between rounds each [group_every] ns.  A group runs
   in a forked child, which times [builds_per_group] builds after one
   untimed build (that one pays the copy-on-write faults of the child's
   first allocations), so what the builds allocate never enters the
   trials' heap or resident set. *)
let builds_per_group = 3
let group_every = 1_000_000_000

(* The peak resident set is read after this many trials, before any
   set-up child is forked between rounds, so that it covers the same work
   on every run (how many trials a run holds follows the host's speed),
   as the serve workloads read it after their fixed-volume open loop. *)
let peak_trials = 48

let timed_builds () =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        try
          ignore (build () : instance);
          let oc = Unix.out_channel_of_descr w in
          for _ = 1 to builds_per_group do
            let t0 = Clock.now () in
            ignore (build () : instance);
            Printf.fprintf oc "%d\n" (Clock.now () - t0)
          done;
          close_out oc;
          0
        with _ -> 1
      in
      (* skip at_exit and the parent's buffered output *)
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let lines = In_channel.input_lines ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 when List.length lines = builds_per_group ->
          List.map (fun l -> Clock.seconds (int_of_string l)) lines
      | _ -> failwith "alg1: the set-up child failed")

(* Whole rounds of trials until [seconds] have passed.  The throughput is
   the samples consumed per second of trials; the latency is the median
   yes trial, because the yes trials run all five stages while the no
   trials stop early, and the median of the 2:1 mixture sits on the
   shoulder between the two. *)
let run ~seed ~seconds =
  let times = ref (timed_builds ()) in
  let inst = build () in
  let stream = trial_stream ~seed in
  let yes_times = Quantile.Ivec.create () in
  let samples = ref 0 and failed = ref 0 in
  let yes_n = ref 0 and yes_acc = ref 0 and no_n = ref 0 and no_acc = ref 0 in
  let t0 = Clock.now () in
  let until = t0 + int_of_float (seconds *. 1e9) in
  let i = ref 0 in
  let paused = ref 0 and next_group = ref (t0 + group_every) in
  let peak = ref None in
  while Clock.now () < until || !i mod 3 <> 0 do
    let yes = is_yes !i in
    let o = oracle inst ~yes (Randkit.Rng.split stream) in
    let a = Clock.now () in
    (match Histotest.Hist_tester.run ~ws:inst.ws o ~k ~eps:Gen.eps with
    | r ->
        let used = r.Histotest.Hist_tester.samples_used in
        samples := !samples + used;
        let acc = Verdict.equal r.Histotest.Hist_tester.verdict Verdict.Accept in
        if yes then begin
          incr yes_n;
          if acc then incr yes_acc;
          Quantile.Ivec.push yes_times (Clock.now () - a)
        end
        else begin
          incr no_n;
          if acc then incr no_acc
        end
    | exception e ->
        prerr_endline ("trial raised: " ^ Printexc.to_string e);
        incr failed);
    incr i;
    if !i = peak_trials then peak := Some (Proc.peak_rss_mib "self");
    if !i mod 3 = 0 && !i >= peak_trials && Clock.now () >= !next_group then begin
      let a = Clock.now () in
      times := timed_builds () @ !times;
      let b = Clock.now () in
      paused := !paused + (b - a);
      next_group := b + group_every
    end
  done;
  let elapsed = Clock.seconds (Clock.now () - t0 - !paused) in
  let peak_rss_mb =
    match !peak with Some p -> p | None -> Proc.peak_rss_mib "self"
  in
  let rate num den = float_of_int num /. float_of_int (max 1 den) in
  {
    measures =
      [
        ("setup_s", Quantile.median (Array.of_list !times));
        ("throughput_values_per_s", float_of_int !samples /. elapsed);
        ( "lat_p50_us",
          float_of_int (Quantile.percentile (Quantile.Ivec.sorted yes_times) 0.5) /. 1e3 );
        ("peak_rss_mb", peak_rss_mb);
      ];
    trials = !i;
    yes_accept = rate !yes_acc !yes_n;
    no_accept = rate !no_acc !no_n;
    failed = !failed;
    elapsed_s = elapsed;
  }

(* The paper's guarantee on the run's own trials. *)
let correct r = r.failed = 0 && r.yes_accept >= 2. /. 3. && r.no_accept <= 1. /. 3.

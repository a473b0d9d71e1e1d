(* Shared plumbing for the experiment suite.

   Every experiment prints a self-contained table: the claim it reproduces,
   the workload, and the measured rows.  EXPERIMENTS.md records one
   reference run of each. *)

(* [jobs] sizes the pool each trial sweep opens; an experiment that runs
   no trials never starts a second domain. *)
type mode = { quick : bool; seed : int; jobs : int }

let section ~id ~claim =
  Format.printf "@.=== %s ===@." id;
  Format.printf "%s@.@." claim

let row fmt = Format.printf fmt

let hline () =
  Format.printf "%s@." (String.make 72 '-')

(* One pool per sweep, [mode.jobs] domains (--jobs).  The harness
   pre-splits the generators off [rng] and shares one split tree, so the
   results are bit-identical at any job count. *)
let run_trials ~mode ~rng ~trials ~pmf f =
  Parkit.Pool.with_pool ~jobs:mode.jobs (fun pool ->
      Harness.run_trials ~pool ~rng ~trials ~pmf f)

let accept_rate ~mode ~trials ~pmf run =
  let rng = Randkit.Rng.create ~seed:mode.seed in
  Parkit.Pool.with_pool ~jobs:mode.jobs (fun pool ->
      Harness.accept_rate ~pool ~rng ~trials ~pmf (fun trial ->
          run trial.Harness.oracle))

(* Error on a completeness/soundness pair: (rejection rate on yes,
   acceptance rate on no). *)
let error_pair ~mode ~trials ~yes ~no run =
  let a_yes = accept_rate ~mode ~trials ~pmf:yes run in
  let a_no = accept_rate ~mode ~trials ~pmf:no run in
  (1. -. a_yes, a_no)

(* How many elements of [a] satisfy [p]. *)
let count p a = Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 a

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

(* Append [json] to [file] in the cwd as one line, and echo it. *)
let append_json file json =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file in
  output_string oc (json ^ "\n");
  close_out oc;
  row "@.%s@." json;
  row "(appended to %s)@." file

(* The run with the best wall time of [repeats] runs of [run], which
   returns its wall time last. *)
let best_of repeats run =
  let best = ref (run ()) in
  for _ = 2 to repeats do
    let (_, _, wall) as r = run () in
    let _, _, best_wall = !best in
    if wall < best_wall then best := r
  done;
  !best

(* The serve benches' request corpus: [lines] observe lines of
   [per_line] values drawn iid from [pmf], round-robin over the shards
   [prefix ^ "s0"] .. [prefix ^ "s<shards - 1>"]. *)
let observe_corpus ~rng ~pmf ~prefix ~shards ~lines ~per_line =
  let alias = Alias.of_pmf pmf in
  let buf = Buffer.create (per_line * 8) in
  Array.init lines (fun i ->
      Buffer.clear buf;
      Buffer.add_string buf
        (Printf.sprintf {|{"cmd":"observe","shard":"%ss%d","xs":[|} prefix
           (i mod shards));
      for j = 0 to per_line - 1 do
        if j > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int (Alias.draw alias rng))
      done;
      Buffer.add_string buf "]}";
      Buffer.contents buf)

(* A request script as the wire carries it: each line newline-ended. *)
let payload lines =
  let b = Buffer.create (1 lsl 20) in
  Array.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  Buffer.contents b

(* Serve [payload] over real pipes, the way histotestd's stdio mode
   meets it: a feeder domain writes the requests into one pipe and a
   drainer domain reads the responses out of another until EOF, so the
   server pays its input reads and output writes.  [serve input output]
   answers and must close both fds when it is done.  Returns the
   transcript, what [serve] returned and its wall time. *)
let over_pipes payload serve =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let feeder =
    Domain.spawn (fun () ->
        let len = String.length payload in
        let sent = ref 0 in
        (try
           while !sent < len do
             sent :=
               !sent
               + Unix.write_substring in_w payload !sent
                   (min 65536 (len - !sent))
           done
         with Unix.Unix_error _ -> ());
        Unix.close in_w)
  in
  let drainer =
    Domain.spawn (fun () ->
        let buf = Buffer.create (1 lsl 16) in
        let tmp = Bytes.create 65536 in
        let eof = ref false in
        while not !eof do
          match Unix.read out_r tmp 0 (Bytes.length tmp) with
          | 0 -> eof := true
          | m -> Buffer.add_subbytes buf tmp 0 m
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        Unix.close out_r;
        Buffer.contents buf)
  in
  let result, wall = wall_time_of (fun () -> serve in_r out_w) in
  Domain.join feeder;
  (Domain.join drainer, result, wall)

(* The daemon's stdio mode as it runs, for [over_pipes]: the Netio
   reactor adopts the pipe pair as one connection ([Netio.add_pipe])
   and steps until it closes, which closes both fds. *)
let reactor_serve ~batch ~service input output =
  let t = Netio.create_reactor ~batch ~service ~listeners:[] () in
  Netio.add_pipe t ~input ~output;
  while Netio.active t > 0 do
    Netio.step t ~timeout:0.05
  done;
  Netio.stats t

(* Canonical instance pairs used across experiments: a k-staircase with
   well-separated levels (in H_k) against a 4k-piece comb (far from H_k at
   the experiment's eps). *)
let yes_instance ~n ~k ~seed =
  Families.staircase ~n ~k ~rng:(Randkit.Rng.create ~seed)

let no_instance ~n ~k =
  Families.comb ~n ~teeth:(2 * k)

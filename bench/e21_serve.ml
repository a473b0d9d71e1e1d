(* E21 — serve path: batched, pipelined ingest at line rate.

   PR 7 made the daemon correct (E20 gates merge-topology bit-identity);
   this bench makes it fast and keeps it honest.  Three measurements:

   1. The transcript gate (wired into CI as `make bench-serve`): a fixed
      request script — one accepting corpus, one rejecting — is served
      through the batched engine across a batch grid, and the full
      response transcript must be BYTE-IDENTICAL to the line-at-a-time
      oracle Refkit.Strict_serve (Service.handle_line per line, printed
      through the Jsonl tree; it shares no code with Scan, Batch or the
      direct renderer).  Any divergence exits non-zero, like
      E18/E19/E20.

   2. Ingest throughput (values/s) across the same grid and two payload
      shapes — many small `observe` lines vs few large ones — plus the
      fast-path hit rate as provenance.  The acceptance bar: fast path +
      batched output must clear >= 5x over the line-at-a-time oracle at
      batch >= 64.  Serving runs on one domain; the shard-parallel
      ingest an earlier engine offered never measured faster
      (EXPERIMENTS.md, E21) and was removed.

   3. The structure cache: a reconfigure-heavy script cycling a working
      set of hypotheses is served twice over — all-miss (distinct
      fingerprints) vs steady-state (repeated fingerprints) — and the
      cache hit rate and per-config speedup are recorded.

   One machine-readable line per run is appended to BENCH_serve.json. *)

let bench_file = "BENCH_serve.json"

(* Serve a script held in memory with [serve] on a fresh service, best
   wall time of [repeats] runs: every line is "already available", so
   batches fill to --batch, which is exactly the saturated-ingest regime
   the daemon sees under load.

   Every write also goes through one real [Unix.write] into a pipe
   drained by a `cat > /dev/null` child, so the measurement pays the
   daemon's actual I/O pattern — the daemon writes responses into a pipe
   to its client: one pipe write per response for the line-at-a-time
   oracle, one per batch for the engine.  An in-process-only transcript
   would hide exactly the buffered-I/O saving the acceptance bar is
   about. *)
let run_script ?(repeats = 1) serve lines =
  let r, w = Unix.pipe () in
  (* the drainer must not inherit [w], or it never sees EOF *)
  Unix.set_close_on_exec w;
  let devnull_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let cat = Unix.create_process "cat" [| "cat" |] r devnull_out Unix.stderr in
  Unix.close r;
  Unix.close devnull_out;
  let run () =
    let t = Service.create () in
    let idx = ref 0 in
    let next () =
      if !idx < Array.length lines then begin
        let l = lines.(!idx) in
        incr idx;
        Some l
      end
      else None
    in
    let transcript = Buffer.create (1 lsl 20) in
    let write s =
      Buffer.add_string transcript s;
      ignore (Unix.write_substring w s 0 (String.length s))
    in
    let result, wall =
      Exp_common.wall_time_of (fun () -> serve t ~next ~write)
    in
    (Buffer.contents transcript, result, wall, t)
  in
  let best = ref (run ()) in
  for _ = 2 to repeats do
    let (_, _, wall, _) as r = run () in
    let _, _, best_wall, _ = !best in
    if wall < best_wall then best := r
  done;
  Unix.close w;
  ignore (Unix.waitpid [] cat);
  !best

let oracle t ~next ~write = Refkit.Strict_serve.serve t ~read_line:next ~write

let batched batch t ~next ~write =
  Service.serve t ~batch
    ~read_line:(fun ~block:_ -> next ())
    ~write:(fun buf -> write (Buffer.contents buf))

let config_line ~n ~family ~eps ~seed =
  Printf.sprintf {|{"cmd":"config","n":%d,"family":"%s","eps":%g,"seed":%d}|} n
    family eps seed

(* Round-robin observe script over [shards] shard names: [lines] lines of
   [per_line] values drawn iid from [pmf]. *)
let observe_script ~n ~family ~eps ~seed ~pmf ~corpus_seed ~shards ~lines
    ~per_line =
  let rng = Randkit.Rng.create ~seed:corpus_seed in
  let alias = Alias.of_pmf pmf in
  let buf = Buffer.create (lines * per_line * 4) in
  let out = Array.make (lines + 2) "" in
  out.(0) <- config_line ~n ~family ~eps ~seed;
  for i = 1 to lines do
    Buffer.clear buf;
    Buffer.add_string buf
      (Printf.sprintf {|{"cmd":"observe","shard":"s%d","xs":[|}
         ((i - 1) mod shards));
    for j = 0 to per_line - 1 do
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int (Alias.draw alias rng))
    done;
    Buffer.add_string buf "]}";
    out.(i) <- Buffer.contents buf
  done;
  out.(lines + 1) <- {|{"cmd":"verdict"}|};
  out

let hit_rate stats =
  let total =
    stats.Service.fast_hits + stats.Service.strict_parses
  in
  if total = 0 then 0.
  else float_of_int stats.Service.fast_hits /. float_of_int total

let run (mode : Exp_common.mode) =
  Exp_common.section
    ~id:"E21 (serve path: batched ingest, byte-identical)"
    ~claim:
      "The batched serve engine — wire fast path, one flush per batch — \
       produces a response transcript byte-identical to the \
       line-at-a-time oracle, while ingesting >= 5x faster at batch >= 64.";
  let seed = mode.Exp_common.seed in
  let quick = mode.Exp_common.quick in

  let n = 4096 and k = 4 and eps = 0.25 and shards = 8 in
  let family = Printf.sprintf "staircase:%d" k in
  let yes = Service.family_of_spec ~n ~seed family |> Result.get_ok in
  let no = Exp_common.no_instance ~n ~k in
  let shapes =
    if quick then
      [ ("small", 8_000, 16); ("large", 48, 8_192) ]
    else [ ("small", 40_000, 16); ("large", 192, 16_384) ]
  in
  let grid = [ 1; 16; 64; 256 ] in

  (* 1 + 2. Transcript gate and throughput, per side x shape x grid. *)
  let all_rows = ref [] in
  let gate_pass = ref true in
  List.iter
    (fun (side, pmf, corpus_seed) ->
      List.iter
        (fun (shape, lines, per_line) ->
          let script =
            observe_script ~n ~family ~eps ~seed ~pmf ~corpus_seed ~shards
              ~lines ~per_line
          in
          let ref_transcript, _, ref_wall, _ =
            run_script ~repeats:9 oracle script
          in
          let ref_rate = float_of_int (lines * per_line) /. ref_wall in
          Exp_common.row
            "@.%s/%s: %d lines x %d values, line-at-a-time oracle: %.1f ms, \
             %.2e values/s@."
            side shape lines per_line (1e3 *. ref_wall) ref_rate;
          Exp_common.row "%6s | %10s | %8s | %9s | %9s@." "batch" "values/s"
            "speedup" "fast-path" "identical";
          Exp_common.hline ();
          List.iter
            (fun batch ->
              let transcript, stats, wall, _ =
                run_script ~repeats:9 (batched batch) script
              in
              let rate = float_of_int stats.Service.values /. wall in
              let identical = String.equal transcript ref_transcript in
              if not identical then gate_pass := false;
              Exp_common.row "%6d | %10.3e | %7.2fx | %8.0f%% | %9b@." batch
                rate (rate /. ref_rate)
                (100. *. hit_rate stats)
                identical;
              all_rows :=
                (side, shape, batch, rate, rate /. ref_rate, hit_rate stats,
                 identical)
                :: !all_rows)
            grid)
        shapes)
    [ ("yes", yes, seed + 1); ("no", no, seed + 2) ];
  let rows = List.rev !all_rows in
  Exp_common.row "@.serve gate (all transcripts byte-identical): %s@."
    (if !gate_pass then "PASS" else "FAIL");

  (* Acceptance bar: fast path + batched output. *)
  let batch64_speedups =
    List.filter_map
      (fun (_, _, batch, _, speedup, _, _) ->
        if batch >= 64 then Some speedup else None)
      rows
  in
  let min_single_core =
    List.fold_left Float.min Float.infinity batch64_speedups
  in
  Exp_common.row
    "speedup at batch >= 64 (min across sides/shapes): %.2fx \
     (bar: 5x)@."
    min_single_core;

  (* 3. Structure cache: all-miss vs steady-state reconfiguration. *)
  let cache_n = if quick then 1 lsl 16 else 1 lsl 18 in
  let working_set = 4 and rounds = if quick then 24 else 96 in
  let miss_script =
    (* every fingerprint distinct: seeds never repeat *)
    Array.init (working_set * rounds) (fun i ->
        config_line ~n:cache_n
          ~family:(Printf.sprintf "khist:%d" (8 + (i mod working_set)))
          ~eps ~seed:(1000 + i))
  in
  let hit_script =
    (* the same working set cycled: first cycle misses, the rest hit *)
    Array.init (working_set * rounds) (fun i ->
        config_line ~n:cache_n
          ~family:(Printf.sprintf "khist:%d" (8 + (i mod working_set)))
          ~eps ~seed:(1000 + (i mod working_set)))
  in
  let _, _, miss_wall, miss_t = run_script (batched 64) miss_script in
  let _, _, hit_wall, hit_t = run_script (batched 64) hit_script in
  let miss_stats = Service.cache_stats miss_t in
  let hit_stats = Service.cache_stats hit_t in
  let per_config w = 1e3 *. w /. float_of_int (working_set * rounds) in
  let cache_hit_rate =
    float_of_int hit_stats.Structcache.hits
    /. float_of_int (hit_stats.Structcache.hits + hit_stats.Structcache.misses)
  in
  Exp_common.row
    "@.structure cache (n=%d, %d configs, working set %d): all-miss %.2f \
     ms/config (%d evictions), steady-state %.3f ms/config (hit rate \
     %.1f%%), %.0fx@."
    cache_n (working_set * rounds) working_set (per_config miss_wall)
    miss_stats.Structcache.evictions (per_config hit_wall)
    (100. *. cache_hit_rate)
    (miss_wall /. Float.max 1e-9 hit_wall);

  (* Explicit per-shape fast-path aggregates: the per-row rates are
     buried in [rows]; these fields make "does the scanner claim the
     whole corpus for this shape" a one-key lookup when diffing bench
     lines across PRs. *)
  let fast_path_by_shape =
    let shapes_seen =
      List.sort_uniq String.compare
        (List.map (fun (_, shape, _, _, _, _, _) -> shape) rows)
    in
    String.concat ","
      (List.map
         (fun shape ->
           let rates =
             List.filter_map
               (fun (_, s, _, _, _, fp, _) ->
                 if String.equal s shape then Some fp else None)
               rows
           in
           let n = float_of_int (List.length rates) in
           let min_r = List.fold_left Float.min Float.infinity rates in
           let mean_r = List.fold_left ( +. ) 0. rates /. Float.max 1. n in
           Exp_common.row
             "fast-path by shape %s: min %.4f, mean %.4f over %d rows@." shape
             min_r mean_r (List.length rates);
           Printf.sprintf
             "{\"shape\":\"%s\",\"min_rate\":%.4f,\"mean_rate\":%.4f}" shape
             min_r mean_r)
         shapes_seen)
  in
  let json =
    Printf.sprintf
      "{\"bench\":\"e21_serve\",\"n\":%d,\"k\":%d,\"eps\":%g,\"shards\":%d,\
       \"seed\":%d,\"nproc\":%d,\"rows\":[%s],\
       \"min_single_core_speedup_batch64\":%.2f,\
       \"fast_path_by_shape\":[%s],\
       \"cache\":{\"n\":%d,\"configs\":%d,\"working_set\":%d,\
       \"miss_ms_per_config\":%.3f,\"hit_ms_per_config\":%.4f,\
       \"hit_rate\":%.4f,\"evictions\":%d,\"speedup\":%.1f},\
       \"serve_gate_pass\":%b}"
      n k eps shards seed (Exp_common.nproc ())
      (String.concat ","
         (List.map
            (fun (side, shape, batch, rate, speedup, fp, identical) ->
              Printf.sprintf
                "{\"side\":\"%s\",\"shape\":\"%s\",\"batch\":%d,\
                 \"values_per_s\":%.3e,\"speedup\":%.2f,\
                 \"fast_path_rate\":%.4f,\"identical\":%b}"
                side shape batch rate speedup fp identical)
            rows))
      min_single_core fast_path_by_shape cache_n (working_set * rounds)
      working_set
      (per_config miss_wall) (per_config hit_wall) cache_hit_rate
      hit_stats.Structcache.evictions
      (miss_wall /. Float.max 1e-9 hit_wall)
      !gate_pass
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 bench_file
  in
  output_string oc (json ^ "\n");
  close_out oc;
  Exp_common.row "@.%s@." json;
  Exp_common.row "(appended to %s)@." bench_file;
  if not !gate_pass then exit 1

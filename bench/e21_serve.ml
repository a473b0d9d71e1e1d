(* E21 — serve path: batched ingest at line rate, on the loop the
   daemon runs.

   Every run here is served the way histotestd's stdio mode meets its
   input: requests written into one pipe, responses read out of another
   (Exp_common.over_pipes).  Three measurements:

   1. The transcript gate (wired into CI as `make bench-serve`): a fixed
      request script — one accepting corpus, one rejecting — is served
      by the Netio reactor over the pipe pair (Netio.add_pipe, the
      daemon's stdin/stdout connection) across a batch grid, and the
      full response transcript must be BYTE-IDENTICAL to the
      line-at-a-time oracle Refkit.Strict_serve (Service.handle_line
      per line, one write per response; it shares the engine's one
      renderer per response kind but not the Reader's spans, Scan's
      fast path or Batch's staging, so the gate checks those, and
      test/golden pins the rendered bytes).  Any divergence exits
      non-zero, like E18/E19/E20.

   2. Ingest throughput (values/s) across the same grid and two payload
      shapes — many small `observe` lines vs few large ones — plus the
      fast-path hit rate as provenance.  The oracle serves the same
      pipes, reading its input buffered and writing one response per
      write(2), so both sides of the speedup pay input reads and the
      output pattern they would have as a daemon.  The bar, recorded
      and not gated: >= 5x over the oracle at batch >= 64.  Serving
      runs on one domain; the shard-parallel ingest an earlier engine
      offered never measured faster (EXPERIMENTS.md, E21) and was
      removed.

   3. The structure cache: a reconfigure-heavy script cycling a working
      set of hypotheses is served twice over — all-miss (distinct
      fingerprints) vs steady-state (repeated fingerprints) — and the
      cache hit rate and per-config speedup are recorded.

   One machine-readable line per run is appended to BENCH_serve.json. *)

let config_line ~n ~family ~eps ~seed =
  Printf.sprintf {|{"cmd":"config","n":%d,"family":"%s","eps":%g,"seed":%d}|} n
    family eps seed

(* The oracle as a line-at-a-time server, for [Exp_common.over_pipes]. *)
let strict_serve input output =
  let ic = Unix.in_channel_of_descr input in
  let write s =
    ignore (Unix.write_substring output s 0 (String.length s) : int)
  in
  let answered =
    Refkit.Strict_serve.serve (Service.create ())
      ~read_line:(fun () -> In_channel.input_line ic)
      ~write
  in
  close_in ic;
  Unix.close output;
  answered

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
      "The daemon's serve loop — the reactor over a pipe pair, wire fast \
       path, one flush per batch — produces a response transcript \
       byte-identical to the line-at-a-time oracle, while ingesting >= 5x \
       faster at batch >= 64.";
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
          let payload =
            Exp_common.payload
              (Array.concat
                 [
                   [| config_line ~n ~family ~eps ~seed |];
                   Exp_common.observe_corpus
                     ~rng:(Randkit.Rng.create ~seed:corpus_seed)
                     ~pmf ~prefix:"" ~shards ~lines ~per_line;
                   [| {|{"cmd":"verdict"}|} |];
                 ])
          in
          let ref_transcript, _, ref_wall =
            Exp_common.best_of 9 (fun () ->
                Exp_common.over_pipes payload strict_serve)
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
              let transcript, stats, wall =
                Exp_common.best_of 9 (fun () ->
                    Exp_common.over_pipes payload
                      (Exp_common.reactor_serve ~batch
                         ~service:(Service.create ())))
              in
              let stats = stats.Netio.engine in
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
  let cache_run script =
    let service = Service.create () in
    let _, _, wall =
      Exp_common.over_pipes (Exp_common.payload script)
        (Exp_common.reactor_serve ~batch:64 ~service)
    in
    (Service.cache_stats service, wall)
  in
  let miss_stats, miss_wall = cache_run miss_script in
  let hit_stats, hit_wall = cache_run hit_script in
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
  Exp_common.append_json "BENCH_serve.json" json;
  if not !gate_pass then exit 1

(* E20 — merge topology: testing as aggregation of mergeable sufficient
   statistics.

   Five measurements:

   1. The determinism gate (the headline, wired into CI as
      `make bench-merge`): replay a fixed corpus — one yes-instance, one
      no-instance — through the reference Refkit.Replay across a sweep
      of shard counts.  Each shard ingests its round-robin slice on its
      own pool domain; the shard states are merged under both a left
      fold and a balanced tree.  Because the χ² verdict is a function of
      the exact integer count vector alone, every topology must
      reproduce the single-process statistic BIT FOR BIT — not
      approximately.  Any divergence fails the gate and exits non-zero,
      like E18/E19.

   2. Ingest scaling: wall time of single-process ingest vs sharded
      ingest + merge at each shard count.  Merging is O(cells + n), so
      the sharded path should approach ingest-time/shards plus a
      constant; this is the practical payoff of the monoid.

   3. Verdict cost against shard count: Service.verdict_info over S
      shards of n = 2^16, timed, with the major-heap words each verdict
      allocates.  The service keeps one accumulator that every shard
      adds into, so those words must not grow with S — a count, not a time, so the
      gate repeats exactly on a noisy host.

   4. The distributional half of the monoid: GK quantile sketches are
      merged under the PODS'12 rule (tree topology via Mergeable.Fold).
      The merged summary must keep the GK invariant and its rank bounds
      must still bracket true ranks with width <= 2*eps*N.  This flavor
      is ε-bounded, never bit-exact — reported honestly next to the
      exact gate.

   5. Set-up cost, recorded: the median config miss on a fresh service
      for staircase:8, khist:8 and comb:8 at n = 2^16 and n = 2^22.

   One machine-readable line per run is appended to BENCH_merge.json. *)

let bench_file = "BENCH_merge.json"

let draw_corpus ~pmf ~samples ~seed =
  let rng = Randkit.Rng.create ~seed in
  let alias = Alias.of_pmf pmf in
  Array.init samples (fun _ -> Alias.draw alias rng)

(* Wall time of the sharded path: replay's shard-per-domain build, then
   its left-fold merge, clocked. *)
let sharded_time ~pool ~part ~shards values =
  Exp_common.wall_time_of (fun () ->
      Refkit.Replay.Suff_fold.reduce
        (Refkit.Replay.shard_states ~pool ~part ~shards values))

module Gk_fold = Numkit.Mergeable.Fold (struct
  type t = Gk.t

  let merge = Gk.merge
end)

let run (mode : Exp_common.mode) =
  Exp_common.section ~id:"E20 (merge topology: sharded verdicts bit-identical)"
    ~claim:
      "The chi^2 verdict depends on the stream only through exact integer \
       counts, so per-shard sufficient statistics merged under any \
       topology reproduce the single-process statistic bit for bit; GK \
       sketches merge with the epsilon bound intact.";
  let seed = mode.Exp_common.seed in
  let quick = mode.Exp_common.quick in

  (* 1. Determinism gate across shard counts and both instance sides. *)
  let n = 4096 and k = 4 and eps = 0.25 in
  let samples = if quick then 50_000 else 400_000 in
  let shard_counts = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 4; 8; 16; 32 ] in
  let cells = min n 64 in
  let part = Partition.equal_width ~n ~cells in
  let yes = Exp_common.yes_instance ~n ~k ~seed in
  let no = Exp_common.no_instance ~n ~k in
  Exp_common.row
    "corpus: %d iid draws per side, n=%d, k=%d, eps=%g, %d cells, pool \
     jobs=%d@."
    samples n k eps cells mode.Exp_common.jobs;
  Exp_common.row "%5s | %6s | %9s | %22s | %22s | %9s@." "side" "shards"
    "verdict" "z (single)" "z (fold/tree)" "identical";
  Exp_common.hline ();
  (* Both verdict outcomes go through the gate: the yes side draws from
     the hypothesis itself (accept), the no side draws from the far
     instance but is tested against the yes hypothesis (reject). *)
  let replay_rows =
    Parkit.Pool.with_pool ~jobs:mode.Exp_common.jobs @@ fun pool ->
    List.concat_map
      (fun (side, pmf, corpus_seed) ->
        let values = draw_corpus ~pmf ~samples ~seed:corpus_seed in
        List.map
          (fun shards ->
            let r =
              Refkit.Replay.replay ~pool ~part ~dstar:yes ~eps ~shards values
            in
            Exp_common.row "%5s | %6d | %9s | %22.15g | %22.15g | %9b@." side
              shards
              (Verdict.to_string r.Refkit.Replay.single_verdict)
              r.Refkit.Replay.single_z r.Refkit.Replay.fold_z
              r.Refkit.Replay.identical;
            (side, shards, r))
          shard_counts)
      [ ("yes", yes, seed + 1); ("no", no, seed + 2) ]
  in
  let gate_pass =
    List.for_all (fun (_, _, r) -> r.Refkit.Replay.identical) replay_rows
  in
  Exp_common.row "merge gate (all topologies bit-identical): %s@."
    (if gate_pass then "PASS" else "FAIL");

  (* 2. Ingest scaling: single-process vs sharded-then-merged. *)
  let timing_values = draw_corpus ~pmf:yes ~samples ~seed:(seed + 1) in
  let single_t =
    let st = Suffstat.create ~part in
    let _, t =
      Exp_common.wall_time_of (fun () -> Suffstat.observe_all st timing_values)
    in
    t
  in
  Exp_common.row "@.ingest wall time, %d values (single: %.1f ms):@." samples
    (1e3 *. single_t);
  Exp_common.row "%6s | %12s | %8s@." "shards" "sharded ms" "speedup";
  Exp_common.hline ();
  let timing_rows =
    Parkit.Pool.with_pool ~jobs:mode.Exp_common.jobs @@ fun pool ->
    List.map
      (fun shards ->
        let _, t = sharded_time ~pool ~part ~shards timing_values in
        let speedup = single_t /. Float.max 1e-9 t in
        Exp_common.row "%6d | %12.1f | %7.2fx@." shards (1e3 *. t) speedup;
        (shards, t, speedup))
      shard_counts
  in

  (* 3. Verdict cost vs shard count.  Each shard holds 1024 values; the
     merge still walks all n counts of every shard.  The direct major
     words of one O(n) allocation (n = 2^16) per verdict dwarf the
     slack. *)
  let verdict_n = 1 lsl 16 in
  let verdict_reps = if quick then 20 else 100 in
  let verdict_slack = 1024. in
  Exp_common.row "@.verdict cost, n=%d, %d verdicts per row:@." verdict_n
    verdict_reps;
  Exp_common.row "%6s | %12s | %16s@." "shards" "ms/verdict"
    "major words/verd";
  Exp_common.hline ();
  let verdict_rows =
    List.map
      (fun shards ->
        let svc = Service.create () in
        (match
           Service.configure svc ~n:verdict_n ~family:"uniform" ~eps
             ~cells:None ~seed
         with
        | Ok _ -> ()
        | Error msg -> failwith msg);
        let rng = Randkit.Rng.create ~seed:(seed + 4) in
        for s = 0 to shards - 1 do
          let xs = Array.init 1024 (fun _ -> Randkit.Rng.int rng verdict_n) in
          match Service.observe svc ~shard:(Printf.sprintf "s%d" s) xs with
          | Ok _ -> ()
          | Error msg -> failwith msg
        done;
        let verdict () =
          match Service.verdict_info svc with
          | Ok _ -> ()
          | Error msg -> failwith msg
        in
        verdict ();
        let ((), t), { Refkit.Alloc.direct_major; _ } =
          Refkit.Alloc.measure (fun () ->
              Exp_common.wall_time_of (fun () ->
                  for _ = 1 to verdict_reps do
                    verdict ()
                  done))
        in
        let reps = float_of_int verdict_reps in
        let words = direct_major /. reps in
        let ms = 1e3 *. t /. reps in
        Exp_common.row "%6d | %12.3f | %16.1f@." shards ms words;
        (shards, ms, words))
      [ 1; 8; 64 ]
  in
  let verdict_pass =
    match verdict_rows with
    | (_, _, base) :: _ ->
        List.for_all
          (fun (_, _, words) -> words <= base +. verdict_slack)
          verdict_rows
    | [] -> false
  in
  Exp_common.row "verdict gate (direct major flat in shards, slack %.0f): %s@."
    verdict_slack
    (if verdict_pass then "PASS" else "FAIL");

  (* 4. GK merge: invariant preserved, rank bounds still epsilon-valid. *)
  let gk_eps = 0.01 in
  let gk_n = if quick then 40_000 else 200_000 in
  let gk_shards = 8 in
  let rng = Randkit.Rng.create ~seed:(seed + 3) in
  let stream = Array.init gk_n (fun _ -> Randkit.Rng.float rng 1.0) in
  let parts =
    Array.init gk_shards (fun s ->
        let g = Gk.create ~eps:gk_eps in
        let i = ref s in
        while !i < gk_n do
          Gk.insert g stream.(!i);
          i := !i + gk_shards
        done;
        g)
  in
  let merged = Gk_fold.tree_reduce parts in
  let sorted = Array.copy stream in
  Array.sort Float.compare sorted;
  let queries = if quick then 200 else 2000 in
  let max_width = ref 0 and bracket_ok = ref true in
  for qi = 0 to queries - 1 do
    let idx = qi * (gk_n - 1) / (queries - 1) in
    let q = sorted.(idx) in
    (* true rank: # values <= q (values are iid uniform floats, distinct
       with probability 1) *)
    let r = idx + 1 in
    let lo, hi = Gk.rank_bounds merged q in
    if not (lo <= r && r <= hi) then bracket_ok := false;
    max_width := max !max_width (hi - lo)
  done;
  let width_limit = int_of_float (2. *. gk_eps *. float_of_int gk_n) + 1 in
  let gk_pass =
    Gk.invariant_ok merged && !bracket_ok && !max_width <= width_limit
  in
  Exp_common.row
    "@.GK merge (eps=%g, N=%d, %d shards, tree topology): invariant %b, \
     %d/%d ranks bracketed, max bound width %d (limit %d) -> %s@."
    gk_eps gk_n gk_shards (Gk.invariant_ok merged) queries queries !max_width
    width_limit
    (if gk_pass then "PASS" else "FAIL");

  (* 5. Set-up cost: the median config miss on a fresh service for three
     piecewise families, at n = 2^16 and at the largest n a config may
     ask for.  Recorded, not gated.  A piecewise build costs its pieces,
     O(K log n), so the n = 2^22 reading should stay within a few times
     the n = 2^16 one. *)
  let setup_reps = if quick then 15 else 101 in
  Exp_common.row "@.config miss on a fresh service, median of %d:@."
    setup_reps;
  Exp_common.row "%12s | %8s | %10s@." "family" "n" "miss us";
  Exp_common.hline ();
  let setup_rows =
    List.concat_map
      (fun family ->
        List.map
          (fun n ->
            let times =
              Array.init setup_reps (fun _ ->
                  let svc = Service.create () in
                  let r, t =
                    Exp_common.wall_time_of (fun () ->
                        Service.configure svc ~n ~family ~eps ~cells:None ~seed)
                  in
                  (match r with Ok _ -> () | Error msg -> failwith msg);
                  t)
            in
            Array.sort Float.compare times;
            let us = 1e6 *. times.(setup_reps / 2) in
            Exp_common.row "%12s | %8d | %10.1f@." family n us;
            (family, n, us))
          [ 1 lsl 16; Service.max_n ])
      [ "staircase:8"; "khist:8"; "comb:8" ]
  in
  let setup_us family n =
    List.fold_left
      (fun acc (f, m, us) -> if f = family && m = n then us else acc)
      nan setup_rows
  in
  Exp_common.row "staircase:8 miss, n=%d over n=%d: %.1fx@." Service.max_n
    (1 lsl 16)
    (setup_us "staircase:8" Service.max_n /. setup_us "staircase:8" (1 lsl 16));

  let all_pass = gate_pass && verdict_pass && gk_pass in
  let json =
    Printf.sprintf
      "{\"bench\":\"e20_merge\",\"n\":%d,\"k\":%d,\"eps\":%g,\"cells\":%d,\
       \"samples\":%d,\"seed\":%d,\"jobs\":%d,\"nproc\":%d,\"replays\":[%s],\
       \"ingest\":{\"single_ms\":%.1f,\"sharded\":[%s]},\
       \"verdict_cost\":{\"n\":%d,\"reps\":%d,\"rows\":[%s],\"pass\":%b},\
       \"gk\":{\"eps\":%g,\"n\":%d,\"shards\":%d,\"invariant\":%b,\
       \"max_width\":%d,\"width_limit\":%d,\"pass\":%b},\
       \"setup\":{\"reps\":%d,\"rows\":[%s]},\
       \"merge_gate_pass\":%b}"
      n k eps cells samples seed mode.Exp_common.jobs (Exp_common.nproc ())
      (String.concat ","
         (List.map
            (fun (side, shards, r) ->
              Printf.sprintf
                "{\"side\":\"%s\",\"shards\":%d,\"verdict\":\"%s\",\
                 \"z\":%.17g,\"identical\":%b}"
                side shards
                (Verdict.to_string r.Refkit.Replay.single_verdict)
                r.Refkit.Replay.single_z r.Refkit.Replay.identical)
            replay_rows))
      (1e3 *. single_t)
      (String.concat ","
         (List.map
            (fun (shards, t, speedup) ->
              Printf.sprintf
                "{\"shards\":%d,\"ms\":%.1f,\"speedup\":%.2f}"
                shards (1e3 *. t) speedup)
            timing_rows))
      verdict_n verdict_reps
      (String.concat ","
         (List.map
            (fun (shards, ms, words) ->
              Printf.sprintf
                "{\"shards\":%d,\"ms\":%.3f,\"major_words\":%.1f}" shards
                ms words)
            verdict_rows))
      verdict_pass gk_eps gk_n gk_shards (Gk.invariant_ok merged) !max_width
      width_limit gk_pass setup_reps
      (String.concat ","
         (List.map
            (fun (family, n, us) ->
              Printf.sprintf "{\"family\":\"%s\",\"n\":%d,\"miss_us\":%.1f}"
                family n us)
            setup_rows))
      all_pass
  in
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 bench_file
  in
  output_string oc (json ^ "\n");
  close_out oc;
  Exp_common.row "@.%s@." json;
  Exp_common.row "(appended to %s)@." bench_file;
  if not all_pass then exit 1

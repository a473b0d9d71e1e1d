(* The serve workloads against the real daemon: spawn, configure, drive
   the measured phases, check every response, end with the check block. *)

type result = {
  measures : (string * float) list;  (** setup_s, throughput, latency, RSS *)
  correct : bool;
  phases : (string * float) list;  (** phase name, seconds *)
  diagnostics : (string * Jsonl.t) list;
}

let ok_response = String.starts_with ~prefix:{|{"ok":true|}
let json_num x = Jsonl.Num x
let json_int i = Jsonl.Num (float_of_int i)

(* Set-up is timed from spawn to the first `config` answered ok, in
   groups spread over the run: at the start, between the segments of the
   measured phases, and after the check block.  The host's speed drifts
   for seconds at a time (30 spawns in a row held within 3 % of each
   other, while three such bursts 3 s apart read 3.6, 4.7 and 5.4 ms), so
   the median is taken over many moments, not one burst.  It still
   follows the host's drift over minutes.  Each group starts with one
   untimed spawn, which was consistently the slowest of its group (it
   pays for caches the benchmark's own work has just evicted). *)
let setups_per_group = 3

(* The measured phases run in this many segments, with a set-up group
   between consecutive ones. *)
let segments = 8

let timed_spawn ~exe ~sock =
  let t0 = Clock.now () in
  let d = Proc.spawn ~exe ~sock in
  let c = Loadgen.connect sock in
  let r = Loadgen.call c (Gen.config_line Gen.family) in
  let dt = Clock.seconds (Clock.now () - t0) in
  if not (ok_response r) then failwith ("config refused: " ^ r);
  (dt, d, c)

let warm_up ~exe ~sock =
  let _, d, c = timed_spawn ~exe ~sock in
  Loadgen.close c;
  Proc.stop d

(* The daemon under test (the last of the first group), its configured
   connection, and whether the two processes were pinned. *)
let start ~exe times =
  let pinned = Proc.pin_self () in
  let sock = Proc.tmp (Printf.sprintf "histotestd-%d.sock" (Unix.getpid ())) in
  warm_up ~exe ~sock;
  let rec go i =
    let dt, d, c = timed_spawn ~exe ~sock in
    times := dt :: !times;
    if i < setups_per_group then begin
      Loadgen.close c;
      Proc.stop d;
      go (i + 1)
    end
    else (d, c)
  in
  let d, c = go 1 in
  (d, c, pinned && Proc.pin d)

(* More set-up samples, on a socket of their own. *)
let more_setups ~exe times =
  let sock = Proc.tmp (Printf.sprintf "setup-%d.sock" (Unix.getpid ())) in
  warm_up ~exe ~sock;
  for _ = 1 to setups_per_group do
    let dt, d, c = timed_spawn ~exe ~sock in
    times := dt :: !times;
    Loadgen.close c;
    Proc.stop d
  done

(* `stats` must report every value sent since the last `config`. *)
let stats_total_ok c ~expected =
  let r = Loadgen.call c Gen.stats_line in
  match Option.bind (Result.to_option (Jsonl.parse r)) (Jsonl.member "total") with
  | Some t when Jsonl.to_int t = Some expected -> true
  | _ ->
      Printf.eprintf "stats: %s, but %d values were sent\n%!" r expected;
      false

(* The check block on one idle connection: its response bytes must equal
   [Service.serve] run in-process on the same lines. *)
let check_block c ~seed shape =
  let script = Gen.check_script ~seed shape in
  let expected = Gen.reference_transcript script in
  let got = Buffer.create (String.length expected) in
  c.Loadgen.on_line <-
    (fun _ buf pos len ->
      Buffer.add_subbytes got buf pos len;
      Buffer.add_char got '\n');
  Array.iter (Loadgen.send c) script;
  let drained = Loadgen.drain [ c ] in
  let same = String.equal (Buffer.contents got) expected in
  if not same then
    prerr_endline "check block: the daemon's transcript differs from Service.serve";
  drained && same

let tail_json name sorted ~scale =
  match Quantile.tail sorted with
  | None -> []
  | Some (p, v) ->
      [
        ( name,
          Jsonl.Obj
            [
              ("percentile", json_num (100. *. p));
              ("value", json_num (Quantile.to_float_ns v /. scale));
              ("samples", json_int (Array.length sorted));
            ] );
      ]

let pct sorted p ~scale = Quantile.to_float_ns (Quantile.percentile sorted p) /. scale

(* serve-small and serve-large: an open-loop phase at a fixed rate for
   latency, then a closed-loop phase for throughput, each of [seconds]/2
   in [segments] segments.  After every segment the generator drains
   each connection and checks the `stats` total.  The daemon's resident
   set grows with the traffic it has served, so peak_rss_mb is read after
   the open loop, whose volume is fixed, and before the closed loop,
   whose volume depends on the host's speed. *)
let run_two_phase ~exe ~seed ~seconds (shape : Gen.shape) =
  let times = ref [] in
  let d, c0, pinned = start ~exe times in
  let conns =
    c0 :: List.init (shape.Gen.conns - 1) (fun _ -> Loadgen.connect d.Proc.sock)
  in
  let pools = Gen.pools ~seed shape in
  let flows = List.mapi (fun i c -> Loadgen.flow c pools.(i)) conns in
  let half = seconds /. 2. in
  let segment_ns = int_of_float (half /. float_of_int segments *. 1e9) in
  let values_sent () = List.fold_left (fun acc f -> acc + f.Loadgen.values) 0 flows in
  let ok = ref true in
  let settle () =
    ok := Loadgen.drain conns && stats_total_ok c0 ~expected:(values_sent ()) && !ok
  in
  let o = Loadgen.open_result () in
  for _ = 1 to segments do
    let start = Clock.now () + 1_000_000 in
    Loadgen.open_loop o flows ~rate:shape.Gen.open_rate ~start ~until:(start + segment_ns);
    settle ();
    more_setups ~exe times
  done;
  let peak = Proc.peak_rss_mib (string_of_int d.Proc.pid) in
  let windows =
    Array.concat
      (List.init segments (fun i ->
           if i > 0 then more_setups ~exe times;
           let w =
             Loadgen.closed_loop flows ~inflight:shape.Gen.inflight
               ~until:(Clock.now () + segment_ns)
           in
           settle ();
           w))
  in
  List.iter (fun c -> if c != c0 then Loadgen.close c) conns;
  let ok_check = check_block c0 ~seed shape in
  Loadgen.close c0;
  Proc.stop d;
  more_setups ~exe times;
  let lat = Quantile.Ivec.sorted o.Loadgen.latency in
  let late = Quantile.Ivec.sorted o.Loadgen.lateness in
  let throughput = Loadgen.mean_rate windows in
  {
    measures =
      [
        ("setup_s", Quantile.median (Array.of_list !times));
        ("throughput_values_per_s", throughput);
        ("lat_p50_us", pct lat 0.5 ~scale:1e3);
        ("peak_rss_mb", peak);
      ];
    correct = !ok && ok_check;
    phases = [ ("open_s", half); ("closed_s", half) ];
    diagnostics =
      [
        ("loadgen.pinned", Jsonl.Bool pinned);
        ("loadgen.open_rate_lines_per_s", json_num shape.Gen.open_rate);
        ("loadgen.open_scheduled", json_int o.Loadgen.scheduled);
        ("loadgen.lat_samples", json_int (Array.length lat));
        ("loadgen.lat_p99_us", json_num (pct lat 0.99 ~scale:1e3));
        ("loadgen.lat_p999_us", json_num (pct lat 0.999 ~scale:1e3));
        ("loadgen.late_p99_ms", json_num (pct late 0.99 ~scale:1e6));
        ("loadgen.late_max_ms", json_num (pct late 1. ~scale:1e6));
        ("loadgen.closed_lines_per_s", json_num (throughput /. float_of_int shape.Gen.per_line));
        ("loadgen.closed_p90_window_values_per_s", json_num (Loadgen.p90_rate windows));
      ]
      @ tail_json "loadgen.lat_tail_us" lat ~scale:1e3;
  }

(* serve-verdict: a writer in a closed loop over 64 shards, and a reader
   asking for one verdict at a time, reconfiguring every 2 s through the
   four hypotheses.  The phase runs in as many segments as the other
   serve workloads' two phases together, with a set-up group between
   consecutive ones. *)
let run_verdict ~exe ~seed ~seconds =
  let times = ref [] in
  let d, writer, pinned = start ~exe times in
  let reader = Loadgen.connect d.Proc.sock in
  let pool = (Gen.pools ~seed Gen.verdict_writer).(0) in
  let flow = Loadgen.flow writer pool in
  let parts = 2 * segments in
  let segment_ns = int_of_float (seconds /. float_of_int parts *. 1e9) in
  let until = ref 0 in
  let reader_line = Gen.reader_line ~seed in
  let verdicts = Quantile.Ivec.create () in
  let expect = Queue.create () in
  let asked = ref 0 in
  let configs = ref 0 in
  let next_config = ref (Clock.now () + 2_000_000_000) in
  let ask kind line =
    Queue.push kind expect;
    Loadgen.send reader line
  in
  let ask_verdict () =
    asked := Clock.now ();
    ask `Verdict Gen.verdict_line
  in
  reader.Loadgen.on_line <-
    (fun t buf pos len ->
      let kind = Queue.pop expect in
      let ok =
        match kind with
        | `Verdict -> Loadgen.has_prefix buf pos len {|{"ok":true,"cmd":"verdict"|}
        | `Config | `Observe -> Loadgen.is_ok buf pos len
      in
      if not ok then Loadgen.fail ();
      match kind with
      | `Config -> ()
      | `Observe -> if t < !until then ask_verdict ()
      | `Verdict ->
          Quantile.Ivec.push verdicts (t - !asked);
          if t < !until then
            if t >= !next_config then begin
              incr configs;
              next_config := !next_config + 2_000_000_000;
              let fam =
                Gen.verdict_families.(!configs mod Array.length Gen.verdict_families)
              in
              ask `Config (Gen.config_line fam);
              ask `Observe reader_line
            end
            else ask_verdict ());
  let drained = ref true in
  let windows =
    Array.concat
      (List.init parts (fun i ->
           if i > 0 then more_setups ~exe times;
           until := Clock.now () + segment_ns;
           if i = 0 then ask `Observe reader_line else ask_verdict ();
           let w =
             Loadgen.closed_loop ~others:[ reader ] [ flow ]
               ~inflight:Gen.verdict_writer.Gen.inflight ~until:!until
           in
           drained := Loadgen.drain [ writer; reader ] && !drained;
           w))
  in
  let peak = Proc.peak_rss_mib (string_of_int d.Proc.pid) in
  Loadgen.close reader;
  let ok_check = check_block writer ~seed Gen.verdict_writer in
  Loadgen.close writer;
  Proc.stop d;
  more_setups ~exe times;
  let v = Quantile.Ivec.sorted verdicts in
  {
    measures =
      [
        ("setup_s", Quantile.median (Array.of_list !times));
        ("throughput_values_per_s", Loadgen.mean_rate windows);
        ("lat_p50_us", pct v 0.5 ~scale:1e3);
        ("peak_rss_mb", peak);
      ];
    correct = !drained && ok_check && Array.length v > 0;
    phases = [ ("mixed_s", seconds) ];
    diagnostics =
      [
        ("loadgen.pinned", Jsonl.Bool pinned);
        ("loadgen.verdicts", json_int (Array.length v));
        ("loadgen.configs", json_int !configs);
        ("loadgen.closed_p90_window_values_per_s", json_num (Loadgen.p90_rate windows));
      ]
      @ tail_json "loadgen.verdict_tail_ms" v ~scale:1e6;
  }

(* The traced run: in-process, over the same seeded inputs as the
   measured workloads, with a span around every call into a layer's
   public functions.  Spans stay in memory and are written out at the
   end; the per-layer metrics are computed from them and from counters
   taken at the same boundaries.

   A span is (name, parent, start, stop, busy, calls).  Calls that
   interleave line by line (the reader's next_span and the executor's
   push_sub) are recorded as one span per batch and layer whose [busy] is
   the sum of the individual calls; every other span is one call, with
   busy = stop - start.  A span's self time is its busy time minus its
   children's.

   Every workload is also run once untraced on identical inputs, so the
   cost of tracing shows ([trace.overhead]); for alg1-trials the untraced
   run is [Hist_tester.run] itself, and every traced trial must reach the
   same verdict, stage and sample count, or the trace measured a
   different program. *)

type span = {
  name : string;
  parent : int;
  start : int;
  mutable stop : int;
  mutable busy : int;
  calls : int;
}

type store = { mutable spans : span array; mutable n : int }

let store () =
  {
    spans = Array.make 1024 { name = ""; parent = -1; start = 0; stop = 0; busy = 0; calls = 0 };
    n = 0;
  }

let add st ~name ~parent ~start ~stop ?(busy = stop - start) ?(calls = 1) () =
  if st.n = Array.length st.spans then begin
    let b = Array.make (2 * st.n) st.spans.(0) in
    Array.blit st.spans 0 b 0 st.n;
    st.spans <- b
  end;
  st.spans.(st.n) <- { name; parent; start; stop; busy; calls };
  st.n <- st.n + 1;
  st.n - 1

(* Self time per span name over the subtree of [root] (spans are stored
   parents first), and the root's own busy time. *)
let self_times st ~root =
  let inside = Array.make st.n false in
  let child_busy = Array.make st.n 0 in
  for i = 0 to st.n - 1 do
    let s = st.spans.(i) in
    inside.(i) <- i = root || (s.parent >= 0 && inside.(s.parent));
    if inside.(i) && i <> root then
      child_busy.(s.parent) <- child_busy.(s.parent) + s.busy
  done;
  let tbl = ref [] in
  for i = 0 to st.n - 1 do
    if inside.(i) then begin
      let s = st.spans.(i) in
      let self = s.busy - child_busy.(i) in
      tbl :=
        match List.assoc_opt s.name !tbl with
        | Some v -> (s.name, v + self) :: List.remove_assoc s.name !tbl
        | None -> (s.name, self) :: !tbl
    end
  done;
  !tbl

let self_of tbl name = Option.value (List.assoc_opt name tbl) ~default:0

(* Share of the root's wall time spent in layers, i.e. not in the root's
   or a [structural] span's own glue. *)
let coverage st ~root ~structural =
  let tbl = self_times st ~root in
  let glue =
    List.fold_left (fun acc name -> acc + self_of tbl name) 0
      (st.spans.(root).name :: structural)
  in
  let wall = st.spans.(root).busy in
  float_of_int (wall - glue) /. float_of_int wall

let write_spans st path =
  let t0 = if st.n > 0 then st.spans.(0).start else 0 in
  let roots = Array.make st.n "" in
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to st.n - 1 do
        let s = st.spans.(i) in
        roots.(i) <- (if s.parent < 0 then s.name else roots.(s.parent));
        Printf.fprintf oc
          {|{"id":%d,"workload":"%s","name":"%s","parent":%d,"start_ns":%d,"end_ns":%d,"busy_ns":%d,"calls":%d}|}
          i roots.(i) s.name s.parent (s.start - t0) (s.stop - t0) s.busy s.calls;
        output_char oc '\n'
      done)

(* --- serve workloads ------------------------------------------------- *)

type counters = {
  mutable lines : int;
  mutable batches : int;
  mutable bytes_read : int;
  mutable refills : int;
  mutable bytes_written : int;
  mutable push_words : int;
  mutable exec_words : int;
  mutable merged_major : float;
  mutable points : int;
  mutable configures : (string * int) list;  (** "hit" or "miss", ns *)
}

let counters () =
  {
    lines = 0;
    batches = 0;
    bytes_read = 0;
    refills = 0;
    bytes_written = 0;
    push_words = 0;
    exec_words = 0;
    merged_major = 0.;
    points = 0;
    configures = [];
  }

let major_words () =
  let _, _, major = Gc.counters () in
  major

let write_all fd buf len =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd buf !off (len - !off)
  done

let drain_socket fd sink =
  let rec go () =
    match Unix.read fd sink 0 (Bytes.length sink) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

type serve_input = {
  file : string;  (** the request bytes, one observe line per line *)
  passes : int;  (** times the file is read *)
  families : string array;  (** hypotheses configured, in order *)
  point_every : int;  (** a verdict point per this many lines; 0 = never *)
  config_every : int;  (** reconfigure after this many verdict points *)
}

(* Read [input.file] through Netio.Reader, push each line span into a
   sequential batch executor, execute, write the responses to a
   socketpair and drain it; at each verdict point merge and compute the
   statistic, and reconfigure on schedule.  With [traced], every layer
   call is timed into [st] under a root span named [root_name]. *)
let replay st ~traced ~root_name input =
  let c = counters () in
  let svc = Service.create () in
  let ex = Service.Batch.create ~pool:Parkit.Pool.sequential ~batch:64 svc in
  let fd = Unix.openfile input.file [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let reader = Netio.Reader.create fd in
  let out_w, out_r = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock out_r;
  let out = Buffer.create 65536 in
  let wbuf = ref (Bytes.create 65536) in
  let sink = Bytes.create 65536 in
  let t_begin = Clock.now () in
  let root =
    if traced then add st ~name:root_name ~parent:(-1) ~start:t_begin ~stop:t_begin ()
    else -1
  in
  let span name f =
    if traced then begin
      let a = Clock.now () in
      let r = f () in
      let b = Clock.now () in
      ignore (add st ~name ~parent:root ~start:a ~stop:b () : int);
      (r, b - a)
    end
    else (f (), 0)
  in
  let configured = ref 0 in
  let dstar = ref None in
  let configure () =
    let fam = input.families.(!configured mod Array.length input.families) in
    incr configured;
    let before = (Service.cache_stats svc).Structcache.hits in
    let cfg, ns =
      span "configure" (fun () ->
          Service.configure svc ~n:Gen.n ~family:fam ~eps:Gen.eps ~cells:None
            ~seed:Gen.hypothesis_seed)
    in
    let hit = (Service.cache_stats svc).Structcache.hits > before in
    c.configures <- ((if hit then "hit" else "miss"), ns) :: c.configures;
    match cfg with
    | Ok cfg -> dstar := Some cfg.Service.dstar
    | Error msg -> failwith msg
  in
  configure ();
  let verdict_point () =
    c.points <- c.points + 1;
    let maj0 = if traced then major_words () else 0. in
    let merged, _ = span "merged" (fun () -> Service.merged svc) in
    if traced then c.merged_major <- c.merged_major +. (major_words () -. maj0);
    (match (merged, !dstar) with
    | Some m, Some d ->
        ignore
          (span "statistic" (fun () -> Suffstat.statistic m ~dstar:d ~eps:Gen.eps)
            : Chi2stat.t * int)
    | _ -> failwith "verdict point without observations");
    if c.points mod input.config_every = 0 then configure ()
  in
  let pass = ref 1 in
  let finished = ref false in
  (* Batches are cut as [Netio.drain] cuts them: at a full batch, or when
     the reader holds no complete line; the one refill a readable
     connection gets per reactor step comes between batches. *)
  let dry = ref true in
  while not !finished do
    let b0 = Clock.now () in
    if !dry then begin
      dry := false;
      match Netio.Reader.refill reader with
      | `Data k ->
          c.bytes_read <- c.bytes_read + k;
          c.refills <- c.refills + 1
      | `Eof | `Would_block -> ()
    end;
    let t = ref (Clock.now ()) in
    let reader_ns = ref (!t - b0) and push_ns = ref 0 and lines = ref 0 in
    let raw = Bytes.unsafe_to_string (Netio.Reader.contents reader) in
    let filling = ref true in
    while !filling && Service.Batch.want_more ex do
      match Netio.Reader.next_span reader with
      | `Span (pos, len) ->
          incr lines;
          if traced then begin
            let t1 = Clock.now () in
            let w0 = Gc.minor_words () in
            Service.Batch.push_sub ex raw ~pos ~len;
            let w1 = Gc.minor_words () in
            let t2 = Clock.now () in
            reader_ns := !reader_ns + (t1 - !t);
            push_ns := !push_ns + (t2 - t1);
            c.push_words <- c.push_words + int_of_float (w1 -. w0);
            t := t2
          end
          else Service.Batch.push_sub ex raw ~pos ~len
      | `Pending ->
          filling := false;
          dry := true
      | `Eof ->
          filling := false;
          if !pass < input.passes then begin
            incr pass;
            ignore (Unix.lseek fd 0 Unix.SEEK_SET : int);
            Netio.Reader.reset reader fd;
            dry := true
          end
          else finished := true
      | `Too_long -> failwith "trace input line too long"
    done;
    let staged = Service.Batch.count ex in
    if staged > 0 then begin
      let te0 = Clock.now () in
      reader_ns := !reader_ns + (te0 - !t);
      let w0 = Gc.minor_words () in
      Buffer.clear out;
      ignore (Service.Batch.execute ex ~out : bool);
      let w1 = Gc.minor_words () in
      let te1 = Clock.now () in
      let len = Buffer.length out in
      if Bytes.length !wbuf < len then wbuf := Bytes.create (2 * len);
      Buffer.blit out 0 !wbuf 0 len;
      write_all out_w !wbuf len;
      let tw1 = Clock.now () in
      drain_socket out_r sink;
      let td1 = Clock.now () in
      c.lines <- c.lines + staged;
      c.batches <- c.batches + 1;
      c.bytes_written <- c.bytes_written + len;
      if traced then begin
        c.exec_words <- c.exec_words + int_of_float (w1 -. w0);
        let a name start stop busy calls =
          ignore (add st ~name ~parent:root ~start ~stop ~busy ~calls () : int)
        in
        a "reader" b0 te0 !reader_ns !lines;
        a "push" b0 te0 !push_ns !lines;
        a "execute" te0 te1 (te1 - te0) 1;
        a "write" te1 tw1 (tw1 - te1) 1;
        a "drain" tw1 td1 (td1 - tw1) 1
      end;
      if input.point_every > 0 && c.lines >= (c.points + 1) * input.point_every then
        verdict_point ()
    end
  done;
  let t_end = Clock.now () in
  if traced then begin
    st.spans.(root).stop <- t_end;
    st.spans.(root).busy <- t_end - t_begin
  end;
  Unix.close fd;
  Unix.close out_w;
  Unix.close out_r;
  (c, svc, ex, root, t_end - t_begin)

let write_lines path lines =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines)

(* Untraced, then traced, on the same input.  Returns the traced run's
   counters, service and executor, its root span, and the overhead. *)
let serve_pair st ~name input =
  let _, _, _, _, plain = replay st ~traced:false ~root_name:name input in
  let c, svc, ex, root, traced = replay st ~traced:true ~root_name:name input in
  (c, svc, ex, root, float_of_int traced /. float_of_int plain)

(* --- alg1-trials ----------------------------------------------------- *)

(* One trial of Algorithm 1, composed from its five stages in the order
   and with the arguments [Hist_tester.run] uses, each stage a span and
   each stage's oracle calls a child span.  Returns what the report
   would say: verdict, deciding stage, samples used. *)
let traced_trial st ~root ~ws (o : Poissonize.oracle) ~k ~eps =
  let open Histotest in
  let oracle_ns = ref 0 and calls = ref 0 in
  let timed f x =
    let a = Clock.now () in
    let r = f x in
    oracle_ns := !oracle_ns + (Clock.now () - a);
    incr calls;
    r
  in
  let o =
    {
      o with
      Poissonize.exact = timed o.Poissonize.exact;
      poissonized = timed o.Poissonize.poissonized;
      stream = timed o.Poissonize.stream;
    }
  in
  let t0 = Clock.now () in
  let trial = add st ~name:"trial" ~parent:root ~start:t0 ~stop:t0 () in
  let stage name f =
    let o0 = !oracle_ns and c0 = !calls in
    let a = Clock.now () in
    let r = f () in
    let b = Clock.now () in
    let s = add st ~name ~parent:trial ~start:a ~stop:b () in
    ignore
      (add st ~name:"oracle" ~parent:s ~start:a ~stop:b ~busy:(!oracle_ns - o0)
         ~calls:(!calls - c0) ()
        : int);
    r
  in
  let config = Config.default in
  let b = Config.part_b config ~k ~eps in
  let ap = stage "approx_part" (fun () -> Approx_part.run ~config o ~b) in
  let part = ap.Approx_part.partition in
  let kk = Partition.cell_count part in
  let learned = stage "learner" (fun () -> Learner.run ~config o ~part ~eps) in
  let dhat = learned.Learner.estimate in
  let so_far = ap.Approx_part.samples_used + learned.Learner.samples_used in
  let eligible =
    Array.init kk (fun j -> Interval.length (Partition.cell part j) >= 2)
  in
  let sieve =
    stage "sieve" (fun () -> Sieve.run ~config o ~dhat ~part ~eligible ~k ~eps)
  in
  let so_far = so_far + sieve.Sieve.samples_used in
  let outcome =
    if Verdict.equal sieve.Sieve.verdict Verdict.Reject then
      (Verdict.Reject, Hist_tester.Sieving, so_far)
    else
      let check_distance =
        stage "closest" (fun () ->
            let mask = Partition.restrict_mask part ~keep:sieve.Sieve.kept in
            Closest.tv_to_hk ~mask dhat ~k)
      in
      if check_distance > eps /. config.Config.check_eps_div then
        (Verdict.Reject, Hist_tester.Checking, so_far)
      else
        let final =
          stage "adk15" (fun () ->
              Adk15.run ~config ~cell_mask:sieve.Sieve.kept ~part ~ws o
                ~dstar:dhat ~eps:(eps *. config.Config.test_eps_frac))
        in
        (final.Adk15.verdict, Hist_tester.Testing, so_far + final.Adk15.samples_used)
  in
  let t1 = Clock.now () in
  st.spans.(trial).stop <- t1;
  st.spans.(trial).busy <- t1 - t0;
  outcome

type alg1_out = {
  a_root : int;
  a_trials : int;
  a_samples : int;
  a_decided : (string * int) list;
  a_minor_words : float;  (** over the untraced runs *)
  a_overhead : float;
  a_mismatches : int;  (** traced trials that differ from Hist_tester.run *)
}

let alg1 st ~seed ~trials =
  let inst = Alg1.build () in
  let stream = Alg1.trial_stream ~seed in
  let root = add st ~name:"alg1-trials" ~parent:(-1) ~start:(Clock.now ()) ~stop:0 ~busy:0 () in
  let samples = ref 0 and minor = ref 0. and plain = ref 0 in
  let mismatches = ref 0 in
  let decided = ref [ ("sieving", 0); ("checking", 0); ("testing", 0) ] in
  for i = 0 to trials - 1 do
    let yes = Alg1.is_yes i in
    let rng = Randkit.Rng.split stream in
    let rng_ref = Randkit.Rng.copy rng in
    let w0 = Gc.minor_words () in
    let a = Clock.now () in
    let r =
      Histotest.Hist_tester.run ~ws:inst.Alg1.ws (Alg1.oracle inst ~yes rng_ref)
        ~k:Alg1.k ~eps:Gen.eps
    in
    let b = Clock.now () in
    let w1 = Gc.minor_words () in
    plain := !plain + (b - a);
    minor := !minor +. (w1 -. w0);
    let verdict, at, used =
      traced_trial st ~root ~ws:inst.Alg1.ws (Alg1.oracle inst ~yes rng) ~k:Alg1.k
        ~eps:Gen.eps
    in
    let stage = Histotest.Hist_tester.stage_to_string at in
    let ref_stage =
      Histotest.Hist_tester.stage_to_string r.Histotest.Hist_tester.decided_at
    in
    if
      not
        (Verdict.equal verdict r.Histotest.Hist_tester.verdict
        && String.equal stage ref_stage
        && used = r.Histotest.Hist_tester.samples_used)
    then begin
      incr mismatches;
      Printf.eprintf "trial %d: traced composition differs from Hist_tester.run\n%!" i
    end;
    samples := !samples + used;
    decided :=
      List.map (fun (s, n) -> if String.equal s stage then (s, n + 1) else (s, n)) !decided
  done;
  (* the root is the sum of the traced trials, not the interleaved
     untraced reference runs *)
  let busy = ref 0 in
  for i = root + 1 to st.n - 1 do
    let s = st.spans.(i) in
    if s.parent = root then busy := !busy + s.busy
  done;
  st.spans.(root).busy <- !busy;
  st.spans.(root).stop <- Clock.now ();
  {
    a_root = root;
    a_trials = trials;
    a_samples = !samples;
    a_decided = !decided;
    a_minor_words = !minor;
    a_overhead = float_of_int !busy /. float_of_int !plain;
    a_mismatches = !mismatches;
  }

(* --- the whole traced run -------------------------------------------- *)

type sizes = {
  small_passes : int;
  large_passes : int;
  verdict_points : int;
  alg1_trials : int;
}

let full = { small_passes = 16; large_passes = 4; verdict_points = 192; alg1_trials = 48 }
let quick = { small_passes = 2; large_passes = 1; verdict_points = 48; alg1_trials = 12 }

(* Lines of a workload's connections, interleaved in round-robin order. *)
let interleave pools =
  let count = Array.length pools.(0).Gen.lines in
  Array.init (count * Array.length pools) (fun i ->
      pools.(i mod Array.length pools).Gen.lines.(i / Array.length pools))

let median_of = function [] -> 0. | xs -> Quantile.median (Array.of_list xs)

type outcome = {
  metrics : (string * float) list;
  coverage : (string * float) list;  (** per workload *)
  overhead : (string * float) list;
  ok : bool;
  attempted : int;  (** lines replayed and trials traced *)
  failed : int;
  spans_file : string;
}

let run ~seed ~sizes =
  let st = store () in
  let small_pools = Gen.pools ~seed Gen.serve_small in
  let large_pools = Gen.pools ~seed Gen.serve_large in
  let writer_pool = (Gen.pools ~seed Gen.verdict_writer).(0) in
  let small_file = Proc.tmp "trace-serve-small.jsonl" in
  let large_file = Proc.tmp "trace-serve-large.jsonl" in
  let verdict_file = Proc.tmp "trace-serve-verdict.jsonl" in
  write_lines small_file (interleave small_pools);
  write_lines large_file (interleave large_pools);
  let writer_lines = 64 * sizes.verdict_points in
  write_lines verdict_file
    (Array.init writer_lines (fun i ->
         writer_pool.Gen.lines.(i mod Array.length writer_pool.Gen.lines)));
  let plain file passes =
    { file; passes; families = [| Gen.family |]; point_every = 0; config_every = 1 }
  in
  let small, _, small_ex, small_root, small_over =
    serve_pair st ~name:"serve-small" (plain small_file sizes.small_passes)
  in
  let large, large_svc, large_ex, large_root, large_over =
    serve_pair st ~name:"serve-large" (plain large_file sizes.large_passes)
  in
  (* serve-large's decoded payloads, replayed into a fresh Suffstat *)
  let part =
    match Service.shards large_svc with
    | (_, s) :: _ -> Suffstat.partition s
    | [] -> failwith "serve-large trace ingested nothing"
  in
  let fresh = Suffstat.create ~part in
  let a = Clock.now () in
  for _ = 1 to sizes.large_passes do
    Array.iter
      (fun p ->
        Array.iter
          (fun xs -> Suffstat.observe_sub fresh xs ~pos:0 ~len:(Array.length xs))
          p.Gen.payloads)
      large_pools
  done;
  let b = Clock.now () in
  let replayed = Suffstat.total fresh in
  ignore
    (add st ~name:"observe_sub" ~parent:(-1) ~start:a ~stop:b
       ~calls:(replayed / Gen.serve_large.Gen.per_line) ()
      : int);
  let verdict, verdict_svc, _, verdict_root, verdict_over =
    serve_pair st ~name:"serve-verdict"
      {
        file = verdict_file;
        passes = 1;
        families = Gen.verdict_families;
        point_every = 64;
        config_every = max 1 (sizes.verdict_points / 6);
      }
  in
  let al = alg1 st ~seed ~trials:sizes.alg1_trials in
  let spans_file = Proc.tmp (Printf.sprintf "spans-seed%d.jsonl" seed) in
  write_spans st spans_file;
  List.iter Proc.remove [ small_file; large_file; verdict_file ];
  let small_self = self_times st ~root:small_root in
  let large_self = self_times st ~root:large_root in
  let verdict_self = self_times st ~root:verdict_root in
  let alg1_self = self_times st ~root:al.a_root in
  let per den num = float_of_int num /. float_of_int (max 1 den) in
  let large_values = large.lines * Gen.serve_large.Gen.per_line in
  let scan =
    let s1 = Service.Batch.stats small_ex and s2 = Service.Batch.stats large_ex in
    let hits = s1.Service.fast_hits + s2.Service.fast_hits in
    per (hits + s1.Service.strict_parses + s2.Service.strict_parses) hits
  in
  let configure_ns kind =
    List.concat_map
      (fun c -> List.filter_map (fun (k, ns) -> if String.equal k kind then Some (float_of_int ns /. 1e6) else None) c.configures)
      [ small; large; verdict ]
  in
  let cache = Service.cache_stats verdict_svc in
  let trials = al.a_trials in
  let stage_ms name = float_of_int (self_of alg1_self name) /. 1e6 /. float_of_int trials in
  let oracle_calls =
    let total = ref 0 in
    for i = 0 to st.n - 1 do
      let s = st.spans.(i) in
      if String.equal s.name "oracle" then total := !total + s.calls
    done;
    !total
  in
  let coverage =
    [
      ("serve-small", coverage st ~root:small_root ~structural:[]);
      ("serve-large", coverage st ~root:large_root ~structural:[]);
      ("serve-verdict", coverage st ~root:verdict_root ~structural:[]);
      ("alg1-trials", coverage st ~root:al.a_root ~structural:[ "trial" ]);
    ]
  in
  let overhead =
    [
      ("serve-small", small_over);
      ("serve-large", large_over);
      ("serve-verdict", verdict_over);
      ("alg1-trials", al.a_overhead);
    ]
  in
  let worst f init l = List.fold_left (fun acc (_, v) -> f acc v) init l in
  let decided s = float_of_int (List.assoc s al.a_decided) in
  let metrics =
    [
      ("netio.reader.ns_per_line", per small.lines (self_of small_self "reader"));
      ("netio.reader.bytes_per_refill", per small.refills small.bytes_read);
      ("service.batch.push.ns_per_line", per small.lines (self_of small_self "push"));
      ("service.batch.push.minor_words_per_line", per small.lines small.push_words);
      ("service.batch.push.ns_per_value", per large_values (self_of large_self "push"));
      ("scan.fast_path_ratio", scan);
      ("service.batch.execute.ns_per_line", per small.lines (self_of small_self "execute"));
      ("service.batch.execute.minor_words_per_line", per small.lines small.exec_words);
      ("service.batch.lines_per_batch", per small.batches small.lines);
      ("service.batch.execute.ns_per_value", per large_values (self_of large_self "execute"));
      ("suffstat.observe_sub.ns_per_value", per replayed (b - a));
      ("write.ns_per_batch", per small.batches (self_of small_self "write"));
      ("write.bytes_per_line", per small.lines small.bytes_written);
      ("service.merged.ms", per verdict.points (self_of verdict_self "merged") /. 1e6);
      ("service.merged.major_words", verdict.merged_major /. float_of_int (max 1 verdict.points));
      ("suffstat.statistic.ms", per verdict.points (self_of verdict_self "statistic") /. 1e6);
      ("service.configure.hit_ms", median_of (configure_ns "hit"));
      ("service.configure.miss_ms", median_of (configure_ns "miss"));
      ("structcache.hit_ratio", per (cache.Structcache.hits + cache.Structcache.misses) cache.Structcache.hits);
      ("approx_part.self_ms_per_trial", stage_ms "approx_part");
      ("learner.self_ms_per_trial", stage_ms "learner");
      ("sieve.self_ms_per_trial", stage_ms "sieve");
      ("closest.self_ms_per_trial", stage_ms "closest");
      ("adk15.self_ms_per_trial", stage_ms "adk15");
      ("poissonize.oracle_ms_per_trial", stage_ms "oracle");
      ("poissonize.calls_per_trial", per trials oracle_calls);
      ("hist_tester.samples_per_trial", per trials al.a_samples);
      ("hist_tester.decided_at.sieving", decided "sieving");
      ("hist_tester.decided_at.checking", decided "checking");
      ("hist_tester.decided_at.testing", decided "testing");
      ("gc.minor_words_per_trial", al.a_minor_words /. float_of_int trials);
      ("trace.coverage", worst Float.min Float.infinity coverage);
      ("trace.overhead", worst Float.max 0. overhead);
    ]
  in
  let coverage_ok = List.for_all (fun (_, c) -> c >= 0.9 && c <= 1.1) coverage in
  if not coverage_ok then prerr_endline "trace: layer self times cover less than 90% of a workload's wall time";
  {
    metrics;
    coverage;
    overhead;
    ok = coverage_ok && al.a_mismatches = 0;
    attempted = small.lines + large.lines + verdict.lines + trials;
    failed = al.a_mismatches;
    spans_file;
  }

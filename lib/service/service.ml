(* The histotestd engine: one Suffstat accumulator per config that every
   shard's traffic is added into, shards reduced to a name and a running
   total, verdicts computed from the accumulator.

   Determinism contract (pinned by the E20 gate): the verdict depends on
   the accumulated stream only through exact integer counts, so ANY
   sharding of a stream, ingested in any interleaving that preserves
   nothing but the multiset of observations, merged under ANY topology,
   yields the verdict — and the statistic, bit for bit — of a single
   process that saw the whole stream.  That same fact makes
   per-shard count vectors redundant here: adding each shard's traffic
   into one vector gives, integer for integer, the sum of the vectors
   the shards would have held. *)

type config = {
  n : int;
  family : string;
  eps : float;
  cells : int;
  seed : int;
  dstar : Families.hypothesis;
  part : Partition.t;
}

type shard = { name : string; mutable total : int }

type t = {
  mutable config : config option;
  mutable acc : Suffstat.t option;
      (* the verdict accumulator, created by the first ingest over its
         partition and kept, cleared, across configs over that partition *)
  mutable shards : shard list;
      (* newest first; reversed for the first-arrival order [stats]
         reports, never iterated in hash order *)
  index : (string, shard) Hashtbl.t;  (* name -> its entry in [shards] *)
  cache : Structcache.t;
      (* built hypothesis structures keyed by config fingerprint, so
         reconfigure-heavy workloads stop paying the O(n) rebuild *)
}

(* The largest domain a config may ask for: every config's count vector
   costs n words (and a dense hypothesis n more floats; a piecewise one
   costs its pieces, and the partition its up to n cells), so an
   unbounded n lets one request exhaust memory.
   2^22 is 16x the largest n any bench or workload uses. *)
let max_n = 1 lsl 22

(* The most shard names one config may hold: each costs a table entry
   plus its string, so an unbounded count lets one client exhaust memory.
   2^12 is 64x the most any bench or workload uses (serve-verdict's 64). *)
let max_shards = 1 lsl 12

let create () =
  {
    config = None;
    acc = None;
    shards = [];
    index = Hashtbl.create 16;
    cache = Structcache.create ();
  }

let cache_stats t = Structcache.stats t.cache

let family_of_spec ~n ~seed spec =
  Families.of_spec ~n ~rng:(Randkit.Rng.create ~seed) spec

let default_cells n = min n 64

(* Start every shard from zero: forget the names, clear the counts. *)
let reset t =
  t.shards <- [];
  Hashtbl.clear t.index;
  Option.iter Suffstat.clear t.acc

let configure t ~n ~family ~eps ~cells ~seed =
  if n < 1 then Error "n must be positive"
  else if n > max_n then Error (Printf.sprintf "n must be at most %d" max_n)
  else if eps <= 0. || eps >= 1. then Error "eps outside (0, 1)"
  else
    let cells =
      match cells with None -> default_cells n | Some c -> max 1 (min n c)
    in
    (* The structures are deterministic in (n, family, seed, cells) and
       immutable once built, so a cache hit is indistinguishable from a
       rebuild — including the error path: build errors are not cached,
       and the spec parser runs inside the builder so its messages are
       unchanged.  A piecewise family is held as its pieces. *)
    let key = Structcache.fingerprint ~n ~family ~seed ~cells in
    match
      Structcache.find_or_build t.cache ~key (fun () ->
          match
            Families.hypothesis_of_spec ~n
              ~rng:(Randkit.Rng.create ~seed)
              family
          with
          | Error _ as e -> e
          | Ok dstar ->
              Ok { Structcache.dstar; part = Partition.equal_width ~n ~cells })
    with
    | Error _ as e -> e
    | Ok { Structcache.dstar; part } ->
        let config = { n; family; eps; cells; seed; dstar; part } in
        t.config <- Some config;
        (* Configs cycling hypotheses over one (n, cells) keep the
           accumulator; a new partition drops it for the collector. *)
        (match t.acc with
        | Some acc when not (Suffstat.fits acc part) -> t.acc <- None
        | Some _ | None -> ());
        reset t;
        Ok config

let err_not_configured = "not configured (send a config request first)"

(* An ingest refused with this wire message; success returns the shard's
   new total and builds nothing. *)
exception Rejected of string

(* The accumulator, created by the first ingest after a config over a
   new partition; with no config yet, the ingest is refused. *)
let new_accumulator t =
  match t.config with
  | None -> raise (Rejected err_not_configured)
  | Some config ->
      let acc = Suffstat.create ~part:config.part in
      t.acc <- Some acc;
      acc

(* Add [len] payload values at [pos] in [xs] to [acc] and raise [sh]'s
   total by what [acc] actually took — an out-of-domain element leaves
   its prefix counted on both, so shard totals always sum to the
   accumulator's. *)
let[@histolint.hot] add_to acc sh kind xs ~pos ~len =
  let before = Suffstat.total acc in
  match
    match kind with
    | Scan.Observe -> Suffstat.observe_sub acc xs ~pos ~len
    | Scan.Counts -> Suffstat.observe_counts acc xs ~pos ~len
  with
  | () ->
      sh.total <- sh.total + (Suffstat.total acc - before);
      sh.total
  | exception Invalid_argument msg ->
      sh.total <- sh.total + (Suffstat.total acc - before);
      raise (Rejected msg)

(* A request naming a shard not seen since the last reset: the name is
   kept only if the request succeeds or adds a value, so a rejected
   request leaves no ghost shard; past [max_shards] it is refused before
   anything is ingested. *)
let ingest_new t acc shard kind xs ~pos ~len =
  if Hashtbl.length t.index >= max_shards then
    raise
      (Rejected (Printf.sprintf "at most %d shards per config" max_shards));
  let sh = { name = shard; total = 0 } in
  Hashtbl.add t.index shard sh;
  t.shards <- sh :: t.shards;
  try add_to acc sh kind xs ~pos ~len
  with Rejected _ as e when sh.total = 0 ->
    Hashtbl.remove t.index shard;
    t.shards <- List.tl t.shards;
    raise e

(* The one ingest path, behind [observe], the protocol step and the
   batch executor: the shard's new total, or [Rejected].  An over-long
   id is refused before anything else. *)
let[@histolint.hot] ingest t shard kind xs ~pos ~len =
  if String.length shard > Scan.max_shard_bytes then
    raise
      (Rejected
         (Printf.sprintf "shard id longer than %d bytes" Scan.max_shard_bytes));
  let acc =
    match t.acc with
    | Some acc -> acc
    | None -> (new_accumulator t [@histolint.alloc_ok "once per partition"])
  in
  match Hashtbl.find t.index shard with
  | sh -> add_to acc sh kind xs ~pos ~len
  | exception Not_found ->
      (ingest_new
         t acc shard kind xs ~pos ~len
       [@histolint.alloc_ok "a shard's first request registers its name"])

let observe t ~shard xs =
  match ingest t shard Scan.Observe xs ~pos:0 ~len:(Array.length xs) with
  | total -> Ok total
  | exception Rejected msg -> Error msg

let merged t = match t.shards with [] -> None | _ :: _ -> t.acc
let shard_totals t = List.rev_map (fun sh -> (sh.name, sh.total)) t.shards
let shards t =
  match t.acc with
  | None -> []
  | Some acc -> List.rev_map (fun sh -> (sh.name, acc)) t.shards

type verdict_info = {
  verdict : Verdict.t;
  z : float;
  threshold : float;
  total : int;
  shard_count : int;
}

let verdict_info t =
  match t.config with
  | None -> Error err_not_configured
  | Some config -> (
      match merged t with
      | None -> Error "no observations yet"
      | Some st when Suffstat.total st = 0 -> Error "no observations yet"
      | Some st ->
          let stat =
            Suffstat.statistic st ~dstar:config.dstar ~eps:config.eps
          in
          let threshold =
            Chi2stat.accept_threshold ~m:stat.Chi2stat.m ~eps:config.eps
          in
          let verdict =
            if stat.Chi2stat.z <= threshold then Verdict.Accept
            else Verdict.Reject
          in
          Ok
            {
              verdict;
              z = stat.Chi2stat.z;
              threshold;
              total = Suffstat.total st;
              shard_count = Hashtbl.length t.index;
            })

(* --- one protocol step --- *)

(* Every response has one renderer.  Ingest responses and errors, the
   traffic, are written to the output buffer directly — no Jsonl tree —
   in the bytes [Jsonl.add_to_buffer] prints for their tree (pinned by
   test_service and the golden transcript).  Integers here are exact in
   double, so decimal digits match the printer's "%.0f".  The six rare
   commands print their [Wire.ok] tree. *)

(* Digits straight into the buffer: [string_of_int] goes through the
   generic %d formatter plus an allocation, and the hot responses carry
   two integers each.  Counts are never [min_int], so negating is safe. *)
let[@histolint.hot] rec add_digits buf v =
  if v >= 10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))

let[@histolint.hot] add_int buf v =
  if v < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf (-v)
  end
  else add_digits buf v

let[@histolint.hot] add_ingest_ok buf kind ~shard ~added ~total =
  Buffer.add_string buf
    (match kind with
    | Scan.Observe -> {|{"ok":true,"cmd":"observe","shard":|}
    | Scan.Counts -> {|{"ok":true,"cmd":"counts","shard":|});
  Jsonl.add_escaped buf shard;
  (match kind with
  | Scan.Observe ->
      Buffer.add_string buf {|,"added":|};
      add_int buf added
  | Scan.Counts -> ());
  Buffer.add_string buf {|,"shard_total":|};
  add_int buf total;
  Buffer.add_char buf '}'

let[@histolint.hot] add_error buf msg =
  Buffer.add_string buf {|{"ok":false,"error":|};
  Jsonl.add_escaped buf msg;
  Buffer.add_char buf '}'

let rendered_error msg =
  let buf = Buffer.create 64 in
  add_error buf msg;
  Buffer.contents buf

(* One ingest request, its response rendered into [out]. *)
let[@histolint.hot] exec_ingest t out kind shard xs ~pos ~len =
  match ingest t shard kind xs ~pos ~len with
  | total -> add_ingest_ok out kind ~shard ~added:len ~total
  | exception Rejected msg -> add_error out msg

let num i = Jsonl.Num (float_of_int i)

(* The protocol step behind [handle_line] and every strict slot of a
   batch: the response to a parsed request, or to its parse error,
   appended to [out]; false after a quit. *)
let respond t out parsed =
  let ok fields = Jsonl.add_to_buffer out (Wire.ok fields) in
  (match (parsed : (Wire.request, string) result) with
  | Error msg -> add_error out msg
  | Ok (Wire.Observe { shard; xs }) ->
      exec_ingest t out Scan.Observe shard xs ~pos:0 ~len:(Array.length xs)
  | Ok (Wire.Counts { shard; counts }) ->
      exec_ingest t out Scan.Counts shard counts ~pos:0
        ~len:(Array.length counts)
  | Ok (Wire.Config { n; family; eps; cells; seed }) -> (
      match configure t ~n ~family ~eps ~cells ~seed with
      | Error msg -> add_error out msg
      | Ok config ->
          ok
            [
              ("cmd", Jsonl.Str "config");
              ("n", num config.n);
              ("family", Jsonl.Str config.family);
              ("eps", Jsonl.Num config.eps);
              ("cells", num config.cells);
              ("seed", num config.seed);
            ])
  | Ok Wire.Verdict -> (
      match verdict_info t with
      | Error msg -> add_error out msg
      | Ok info ->
          ok
            [
              ("cmd", Jsonl.Str "verdict");
              ("verdict", Jsonl.Str (Verdict.to_string info.verdict));
              ("z", Jsonl.Num info.z);
              ("threshold", Jsonl.Num info.threshold);
              ("total", num info.total);
              ("shards", num info.shard_count);
            ])
  | Ok Wire.Stats ->
      let shards =
        List.map
          (fun (name, total) ->
            Jsonl.Obj [ ("name", Jsonl.Str name); ("total", num total) ])
          (shard_totals t)
      in
      let total = Option.fold ~none:0 ~some:Suffstat.total (merged t) in
      ok
        [
          ("cmd", Jsonl.Str "stats");
          ("configured", Jsonl.Bool (Option.is_some t.config));
          ("shards", Jsonl.List shards);
          ("total", num total);
        ]
  | Ok Wire.Cache_stats ->
      let s = Structcache.stats t.cache in
      ok
        [
          ("cmd", Jsonl.Str "cache_stats");
          ("size", num s.Structcache.size);
          ("capacity", num s.Structcache.capacity);
          ("hits", num s.Structcache.hits);
          ("misses", num s.Structcache.misses);
          ("evictions", num s.Structcache.evictions);
        ]
  | Ok Wire.Reset ->
      reset t;
      ok [ ("cmd", Jsonl.Str "reset") ]
  | Ok Wire.Quit -> ok [ ("cmd", Jsonl.Str "quit") ]);
  match parsed with Ok Wire.Quit -> false | Ok _ | Error _ -> true

let handle_line t out line = respond t out (Wire.request_of_line line)

(* --- batched, pipelined serve engine --- *)

type serve_stats = {
  requests : int;
  values : int;
  fast_hits : int;
  strict_parses : int;
  batches : int;
}

(* Matches the whitespace class of [String.trim]: a line that trims to ""
   is no request, at any batch size. *)
let[@histolint.hot] is_blank_sub line pos len =
  let hi = pos + len in
  let i = ref pos in
  while
    !i < hi
    &&
    match String.unsafe_get line !i with
    | ' ' | '\t' | '\n' | '\r' | '\012' -> true
    | _ -> false
  do
    incr i
  done;
  !i = hi

(* Batch fill stops once this many payload values are staged in the
   arena (128 KiB of ints): batching amortizes syscalls, but an
   unbounded arena outgrows the cache — the ingest pass
   re-reads spans the scanner has already evicted — and large-payload
   batches get slower, not faster.  Small lines never hit this bound
   (a 256-line batch of 16-value observes stages 4K values); it only
   clips batches of huge payloads, where per-line syscall amortization
   is negligible anyway. *)
let arena_budget = 1 lsl 14

(* The batch executor behind [serve], exposed so the Netio reactor (the
   daemon's one serve loop) shares the engine [serve] runs: parse
   lines into slots as they arrive, then execute-and-render the batch in
   one step.  One executor per request stream — it owns the arena the
   fast path decodes into and the slot/response buffers, all reused
   across batches (and, via [clear]/[reset_stats], across pooled
   connections). *)
module Batch = struct
  type exec = {
    service : t;
    batch : int;
    arena : Scan.t;
    (* The slots, one array per field, so nothing is allocated per line.
       A fast-path slot is a payload span of the arena; a strict slot is
       the one boxed field, the parser's result in [strict], which is
       [unused] (physically) for every fast slot. *)
    kinds : Scan.kind array;
    shards : string array;
    offs : int array;
    lens : int array;
    strict : (Wire.request, string) result array;
    mutable k : int;
    mutable requests : int;
    mutable values : int;
    mutable fast_hits : int;
    mutable strict_parses : int;
    mutable batches : int;
  }

  let unused = Error ""

  (* An executor preallocates five [batch]-sized arrays, so an unbounded
     batch is an unbounded allocation.  4096 is 16x the largest batch
     E21 measures (256). *)
  let max_batch = 4096

  (* [pool] is accepted and ignored: ingest runs on the caller's domain. *)
  let create ?pool:(_ : Parkit.Pool.t option) ?(batch = 1) service =
    if batch < 1 then invalid_arg "Service.Batch.create: batch < 1";
    if batch > max_batch then
      invalid_arg "Service.Batch.create: batch > Batch.max_batch";
    {
      service;
      batch;
      arena = Scan.create ();
      kinds = Array.make batch Scan.Observe;
      shards = Array.make batch "";
      offs = Array.make batch 0;
      lens = Array.make batch 0;
      strict = Array.make batch unused;
      k = 0;
      requests = 0;
      values = 0;
      fast_hits = 0;
      strict_parses = 0;
      batches = 0;
    }

  let count e = e.k

  (* Stop filling once the arena holds [arena_budget] decoded values:
     past that, scanning ahead just evicts the very spans ingest is
     about to read, and large-payload batches get slower, not faster. *)
  let[@histolint.hot] want_more e =
    e.k < e.batch && Scan.length e.arena < arena_budget

  let strict e line =
    e.strict_parses <- e.strict_parses + 1;
    let parsed = Wire.request_of_line line in
    (match parsed with
    | Ok (Wire.Observe { xs; _ }) -> e.values <- e.values + Array.length xs
    | Ok (Wire.Counts { counts; _ }) ->
        e.values <- e.values + Array.length counts
    | Ok _ | Error _ -> ());
    parsed

  (* The windowed push the socket reactor uses: fast-path lines decode
     straight out of the transport's read buffer into the arena and the
     slot arrays; only strict-parser fallbacks materialize the line. *)
  let[@histolint.hot] push_sub e line ~pos ~len =
    if not (want_more e) then invalid_arg "Service.Batch.push: batch full";
    if not (is_blank_sub line pos len) then begin
      let k = e.k and a = e.arena in
      if Scan.scan_sub a line ~pos ~len then begin
        e.fast_hits <- e.fast_hits + 1;
        e.values <- e.values + Scan.hit_len a;
        e.kinds.(k) <- Scan.hit_kind a;
        e.shards.(k) <- Scan.hit_shard a;
        e.offs.(k) <- Scan.hit_off a;
        e.lens.(k) <- Scan.hit_len a
      end
      else
        e.strict.(k) <-
          (strict e (String.sub line pos len)
          [@histolint.alloc_ok
            "strict-parser fallback: off the fast path, and the parse \
             allocates its tree anyway"]);
      e.k <- k + 1
    end

  let push e line = push_sub e line ~pos:0 ~len:(String.length line)

  let clear e =
    Array.fill e.strict 0 e.k unused;
    e.k <- 0;
    Scan.clear e.arena

  (* Execute the staged slots in request order through the same
     [exec_ingest] and [respond] a line-at-a-time loop would call,
     rendering each response as it goes, so the transcript is that
     loop's.  Slots after a quit are dropped unanswered, exactly as
     sequential serve never reads them. *)
  let[@histolint.hot] execute e ~out =
    if e.k = 0 then true
    else begin
      e.batches <- e.batches + 1;
      let t = e.service and arena = Scan.buffer e.arena in
      let go = ref true and i = ref 0 in
      while !go && !i < e.k do
        let k = !i in
        if e.strict.(k) == unused then
          exec_ingest t out e.kinds.(k) e.shards.(k) arena ~pos:e.offs.(k)
            ~len:e.lens.(k)
        else
          go :=
            (respond
               t out e.strict.(k)
             [@histolint.alloc_ok
               "strict slots: off the fast path, their requests are \
                Jsonl trees"]);
        Buffer.add_char out '\n';
        incr i
      done;
      e.requests <- e.requests + !i;
      clear e;
      !go
    end

  let stats e =
    {
      requests = e.requests;
      values = e.values;
      fast_hits = e.fast_hits;
      strict_parses = e.strict_parses;
      batches = e.batches;
    }

  let reset_stats e =
    e.requests <- 0;
    e.values <- 0;
    e.fast_hits <- 0;
    e.strict_parses <- 0;
    e.batches <- 0
end

let serve ?pool:(_ : Parkit.Pool.t option) ?(batch = 1) t ~read_line ~write =
  if batch < 1 then invalid_arg "Service.serve: batch < 1";
  let ex = Batch.create ~batch t in
  let out = Buffer.create 65536 in
  let continue = ref true in
  while !continue do
    let eof = ref false in
    (* Block until one request is staged (blank lines re-block) ... *)
    while Batch.count ex = 0 && not !eof do
      match read_line ~block:true with
      | None -> eof := true
      | Some line -> Batch.push ex line
    done;
    (* ... then drain whatever more is already available without
       blocking, up to the batch/arena bounds. *)
    let more = ref true in
    while !more && Batch.want_more ex do
      match read_line ~block:false with
      | None -> more := false
      | Some line -> Batch.push ex line
    done;
    if Batch.count ex = 0 then begin
      if !eof then continue := false
    end
    else begin
      Buffer.clear out;
      let go = Batch.execute ex ~out in
      write out;
      if not go then continue := false
    end
  done;
  Batch.stats ex

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
  dstar : Pmf.t;
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

let create ?cache_capacity () =
  {
    config = None;
    acc = None;
    shards = [];
    index = Hashtbl.create 16;
    cache = Structcache.create ?capacity:cache_capacity ();
  }

let cache_stats t = Structcache.stats t.cache

let family_of_spec ~n ~seed spec =
  Families.of_spec ~n ~rng:(Randkit.Rng.create ~seed) spec

(* The largest domain a config may ask for: every config costs O(n)
   words (the hypothesis, its cell table, the count vector), so an
   unbounded n lets one request exhaust memory.  2^22 is 16x the largest
   n any bench or workload uses. *)
let max_n = 1 lsl 22

(* The most shard names one config may hold: each costs a table entry
   plus its string, so an unbounded count lets one client exhaust memory.
   2^12 is 64x the most any bench or workload uses (serve-verdict's 64). *)
let max_shards = 1 lsl 12

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
       and [family_of_spec] runs inside the builder so its messages are
       unchanged. *)
    let key = Structcache.fingerprint ~n ~family ~seed ~cells in
    match
      Structcache.find_or_build t.cache ~key (fun () ->
          match family_of_spec ~n ~seed family with
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

(* The accumulator of the configured partition, created on first use. *)
let accumulator t config =
  match t.acc with
  | Some acc -> acc
  | None ->
      let acc = Suffstat.create ~part:config.part in
      t.acc <- Some acc;
      acc

(* Add [len] payload values at [pos] in [xs] to the accumulator and raise
   [sh]'s total by what the accumulator actually took — an out-of-domain
   element leaves its prefix counted on both, so shard totals always sum
   to the accumulator's. *)
let add_to t config sh kind xs ~pos ~len =
  let acc = accumulator t config in
  let before = Suffstat.total acc in
  let error =
    match
      match kind with
      | Scan.Observe -> Suffstat.observe_sub acc xs ~pos ~len
      | Scan.Counts ->
          Suffstat.observe_counts acc
            (if pos = 0 && len = Array.length xs then xs
             else Array.sub xs pos len)
    with
    | () -> None
    | exception Invalid_argument msg -> Some msg
  in
  sh.total <- sh.total + (Suffstat.total acc - before);
  match error with None -> Ok sh.total | Some msg -> Error msg

(* The one ingest path, behind [observe], [observe_counts], the protocol
   step and the batch executor.  A new name is registered only by a
   request that succeeds or adds a value, so a rejected request leaves no
   ghost shard; past [max_shards] a new name is refused before anything
   is ingested. *)
let ingest t shard kind xs ~pos ~len =
  match t.config with
  | None -> Error err_not_configured
  | Some config -> (
      match Hashtbl.find t.index shard with
      | sh -> add_to t config sh kind xs ~pos ~len
      | exception Not_found ->
          if Hashtbl.length t.index >= max_shards then
            Error (Printf.sprintf "at most %d shards per config" max_shards)
          else
            let sh = { name = shard; total = 0 } in
            let result = add_to t config sh kind xs ~pos ~len in
            (match result with
            | Error _ when sh.total = 0 -> ()
            | Ok _ | Error _ ->
                Hashtbl.add t.index shard sh;
                t.shards <- sh :: t.shards);
            result)

let observe t ~shard xs =
  ingest t shard Scan.Observe xs ~pos:0 ~len:(Array.length xs)

let observe_counts t ~shard counts =
  ingest t shard Scan.Counts counts ~pos:0 ~len:(Array.length counts)

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

let handle_request t req =
  match (req : Wire.request) with
  | Wire.Config { n; family; eps; cells; seed } -> (
      match configure t ~n ~family ~eps ~cells ~seed with
      | Error msg -> (Wire.error msg, true)
      | Ok config ->
          ( Wire.ok
              [
                ("cmd", Jsonl.Str "config");
                ("n", Jsonl.Num (float_of_int config.n));
                ("family", Jsonl.Str config.family);
                ("eps", Jsonl.Num config.eps);
                ("cells", Jsonl.Num (float_of_int config.cells));
                ("seed", Jsonl.Num (float_of_int config.seed));
              ],
            true ))
  | Wire.Observe { shard; xs } -> (
      match observe t ~shard xs with
      | Error msg -> (Wire.error msg, true)
      | Ok total ->
          ( Wire.ok
              [
                ("cmd", Jsonl.Str "observe");
                ("shard", Jsonl.Str shard);
                ("added", Jsonl.Num (float_of_int (Array.length xs)));
                ("shard_total", Jsonl.Num (float_of_int total));
              ],
            true ))
  | Wire.Counts { shard; counts } -> (
      match observe_counts t ~shard counts with
      | Error msg -> (Wire.error msg, true)
      | Ok total ->
          ( Wire.ok
              [
                ("cmd", Jsonl.Str "counts");
                ("shard", Jsonl.Str shard);
                ("shard_total", Jsonl.Num (float_of_int total));
              ],
            true ))
  | Wire.Verdict -> (
      match verdict_info t with
      | Error msg -> (Wire.error msg, true)
      | Ok info ->
          ( Wire.ok
              [
                ("cmd", Jsonl.Str "verdict");
                ("verdict", Jsonl.Str (Verdict.to_string info.verdict));
                ("z", Jsonl.Num info.z);
                ("threshold", Jsonl.Num info.threshold);
                ("total", Jsonl.Num (float_of_int info.total));
                ("shards", Jsonl.Num (float_of_int info.shard_count));
              ],
            true ))
  | Wire.Stats ->
      let shards =
        List.map
          (fun (name, total) ->
            Jsonl.Obj
              [
                ("name", Jsonl.Str name);
                ("total", Jsonl.Num (float_of_int total));
              ])
          (shard_totals t)
      in
      let total = Option.fold ~none:0 ~some:Suffstat.total (merged t) in
      ( Wire.ok
          [
            ("cmd", Jsonl.Str "stats");
            ("configured", Jsonl.Bool (Option.is_some t.config));
            ("shards", Jsonl.List shards);
            ("total", Jsonl.Num (float_of_int total));
          ],
        true )
  | Wire.Cache_stats ->
      let s = Structcache.stats t.cache in
      ( Wire.ok
          [
            ("cmd", Jsonl.Str "cache_stats");
            ("size", Jsonl.Num (float_of_int s.Structcache.size));
            ("capacity", Jsonl.Num (float_of_int s.Structcache.capacity));
            ("hits", Jsonl.Num (float_of_int s.Structcache.hits));
            ("misses", Jsonl.Num (float_of_int s.Structcache.misses));
            ("evictions", Jsonl.Num (float_of_int s.Structcache.evictions));
          ],
        true )
  | Wire.Reset ->
      reset t;
      (Wire.ok [ ("cmd", Jsonl.Str "reset") ], true)
  | Wire.Quit -> (Wire.ok [ ("cmd", Jsonl.Str "quit") ], false)

let handle_line t line =
  match Wire.request_of_line line with
  | Error msg -> (Wire.error msg, true)
  | Ok req -> handle_request t req

(* --- batched, pipelined serve engine --- *)

(* One parsed request slot.  The fast path keeps its payload as a span
   into the batch arena; everything else is the strict parser's request
   (or its error message). *)
type slot = S_req of Wire.request | S_fast of Scan.hit | S_err of string

(* Rendered responses.  The hot ingest responses carry just the fields
   and are written to the output buffer directly — no Jsonl tree — with
   bytes identical to [Jsonl.to_string (Wire.ok [...])] (pinned by a
   unit test).  Integers here are exact in double, so [string_of_int]
   matches the printer's "%.0f". *)
type rendered =
  | R_json of Jsonl.t
  | R_observe_ok of { shard : string; added : int; total : int }
  | R_counts_ok of { shard : string; total : int }
  | R_error of string

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

let[@histolint.hot] render buf = function
  | R_json j ->
      (Jsonl.add_to_buffer
         buf j
       [@histolint.alloc_ok
         "R_json responses come from the strict parser / registry \
          commands, which already allocated a Jsonl tree; they are off \
          the fast ingest path"])
  | R_observe_ok { shard; added; total } ->
      Buffer.add_string buf {|{"ok":true,"cmd":"observe","shard":|};
      Jsonl.add_escaped buf shard;
      Buffer.add_string buf {|,"added":|};
      add_int buf added;
      Buffer.add_string buf {|,"shard_total":|};
      add_int buf total;
      Buffer.add_char buf '}'
  | R_counts_ok { shard; total } ->
      Buffer.add_string buf {|{"ok":true,"cmd":"counts","shard":|};
      Jsonl.add_escaped buf shard;
      Buffer.add_string buf {|,"shard_total":|};
      add_int buf total;
      Buffer.add_char buf '}'
  | R_error msg ->
      Buffer.add_string buf {|{"ok":false,"error":|};
      Jsonl.add_escaped buf msg;
      Buffer.add_char buf '}'

let render_to_string r =
  let buf = Buffer.create 64 in
  render buf r;
  Buffer.contents buf

let rendered_observe_ok ~shard ~added ~shard_total =
  render_to_string (R_observe_ok { shard; added; total = shard_total })

let rendered_counts_ok ~shard ~shard_total =
  render_to_string (R_counts_ok { shard; total = shard_total })

let rendered_error msg = render_to_string (R_error msg)

let exec_ingest t kind shard xs ~pos ~len =
  match ingest t shard kind xs ~pos ~len with
  | Ok total -> (
      match kind with
      | Scan.Observe -> R_observe_ok { shard; added = len; total }
      | Scan.Counts -> R_counts_ok { shard; total })
  | Error msg -> R_error msg

(* Execute a parsed batch in request order through the same [ingest] and
   [handle_request] a line-at-a-time loop would call, so the transcript
   is that loop's.  Returns the index of a quit request, if any — slots
   after it are dropped unanswered, exactly as sequential serve never
   reads them. *)
let exec_batch t arena slots resp k =
  let arena = Scan.buffer arena in
  let stop = ref None in
  let i = ref 0 in
  while !i < k && Option.is_none !stop do
    resp.(!i) <-
      (match slots.(!i) with
      | S_fast { Scan.kind; shard; off; len } ->
          exec_ingest t kind shard arena ~pos:off ~len
      | S_req (Wire.Observe { shard; xs }) ->
          exec_ingest t Scan.Observe shard xs ~pos:0 ~len:(Array.length xs)
      | S_req (Wire.Counts { shard; counts }) ->
          exec_ingest t Scan.Counts shard counts ~pos:0
            ~len:(Array.length counts)
      | S_req req ->
          let json, continue = handle_request t req in
          if not continue then stop := Some !i;
          R_json json
      | S_err msg -> R_error msg);
    incr i
  done;
  !stop

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

(* The batch executor behind [serve], exposed so transport front-ends
   (the stdio loop below, the Netio reactor) share one engine: parse
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
    slots : slot array;
    resp : rendered array;
    mutable k : int;
    mutable requests : int;
    mutable values : int;
    mutable fast_hits : int;
    mutable strict_parses : int;
    mutable batches : int;
  }

  (* [pool] is accepted and ignored: ingest runs on the caller's domain. *)
  let create ?pool:(_ : Parkit.Pool.t option) ?(batch = 1) service =
    if batch < 1 then invalid_arg "Service.Batch.create: batch < 1";
    {
      service;
      batch;
      arena = Scan.create ();
      slots = Array.make batch (S_err "");
      resp = Array.make batch (R_error "");
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
  let want_more e = e.k < e.batch && Scan.length e.arena < arena_budget

  let strict e line =
    e.strict_parses <- e.strict_parses + 1;
    match Wire.request_of_line line with
    | Error msg -> S_err msg
    | Ok req ->
        (match req with
        | Wire.Observe { xs; _ } -> e.values <- e.values + Array.length xs
        | Wire.Counts { counts; _ } ->
            e.values <- e.values + Array.length counts
        | _ -> ());
        S_req req

  (* The windowed push the socket reactor uses: fast-path lines decode
     straight out of the transport's read buffer (the shard id is the
     only copy); only strict-parser fallbacks materialize the line. *)
  let push_sub e line ~pos ~len =
    if not (want_more e) then invalid_arg "Service.Batch.push: batch full";
    if not (is_blank_sub line pos len) then begin
      let slot =
        match Scan.scan_sub e.arena line ~pos ~len with
        | Some h ->
            e.fast_hits <- e.fast_hits + 1;
            e.values <- e.values + h.Scan.len;
            S_fast h
        | None -> strict e (String.sub line pos len)
      in
      e.slots.(e.k) <- slot;
      e.k <- e.k + 1
    end

  let push e line = push_sub e line ~pos:0 ~len:(String.length line)

  let clear e =
    e.k <- 0;
    Scan.clear e.arena

  let execute e ~out =
    if e.k = 0 then true
    else begin
      e.batches <- e.batches + 1;
      let stop = exec_batch e.service e.arena e.slots e.resp e.k in
      let last = match stop with Some q -> q | None -> e.k - 1 in
      e.requests <- e.requests + last + 1;
      for i = 0 to last do
        render out e.resp.(i);
        Buffer.add_char out '\n'
      done;
      clear e;
      Option.is_none stop
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

(* The histotestd engine: per-shard Suffstat states, deterministic
   left-fold merge in shard-arrival order into one reused accumulator,
   verdicts recomputed from the merged state.

   Determinism contract (pinned by the replay path and the E20 gate): the
   verdict depends on the accumulated stream only through exact integer
   counts, so ANY sharding of a stream, ingested in any interleaving that
   preserves nothing but the multiset of observations, merged under ANY
   topology, yields the verdict — and the statistic, bit for bit — of a
   single process that saw the whole stream. *)

module Suff_fold = Numkit.Mergeable.Fold (struct
  type t = Suffstat.t

  let merge = Suffstat.merge
end)

type config = {
  n : int;
  family : string;
  eps : float;
  cells : int;
  seed : int;
  dstar : Pmf.t;
  part : Partition.t;
}

type t = {
  mutable config : config option;
  mutable shards : (string * Suffstat.t) list;
      (* assoc list in first-arrival order: deterministic iteration (no
         Hashtbl), and the service-side merge always folds in this
         order *)
  mutable acc : Suffstat.t option;
      (* the verdict accumulator, created with the first shard over its
         partition; every shard is an [empty_like] sibling, so the engine
         holds one element -> cell table per partition *)
  mutable spare : Suffstat.t list;
      (* states released by [configure] and [reset], siblings of [acc],
         cleared when a new shard takes one: storage outlives the config
         as long as the partition does *)
  cache : Structcache.t;
      (* built hypothesis structures keyed by config fingerprint, so
         reconfigure-heavy workloads stop paying the O(n) rebuild *)
}

let create ?cache_capacity () =
  {
    config = None;
    shards = [];
    acc = None;
    spare = [];
    cache = Structcache.create ?capacity:cache_capacity ();
  }

let cache_stats t = Structcache.stats t.cache

let family_of_spec ~n ~seed spec =
  let rng = Randkit.Rng.create ~seed in
  let num = float_of_string and int = int_of_string in
  match
    match String.split_on_char ':' spec with
    | [ "uniform" ] -> Some (Pmf.uniform n)
    | [ "staircase"; k ] -> Some (Families.staircase ~n ~k:(int k) ~rng)
    | [ "khist"; k ] -> Some (Families.random_khist ~n ~k:(int k) ~rng)
    | [ "zipf"; s ] -> Some (Families.zipf ~n ~s:(num s))
    | [ "geometric"; r ] -> Some (Families.geometric_like ~n ~ratio:(num r))
    | [ "comb"; teeth ] -> Some (Families.comb ~n ~teeth:(int teeth))
    | [ "bimodal" ] -> Some (Families.bimodal ~n)
    | [ "spiked"; s ] ->
        Some (Families.spiked ~n ~spikes:(int s) ~spike_mass:0.5 ~rng)
    | [ "monotone"; p ] -> Some (Families.monotone_decreasing ~n ~power:(num p))
    | _ -> None
  with
  | Some pmf -> Ok pmf
  | None ->
      Error
        (Printf.sprintf
           "unknown family %S (try uniform, staircase:K, khist:K, zipf:S, \
            geometric:R, comb:T, bimodal, spiked:S, monotone:P)"
           spec)
  | exception Failure _ ->
      Error (Printf.sprintf "bad numeric parameter in family %S" spec)
  | exception Invalid_argument msg -> Error msg

let default_cells n = min n 64

(* Hand every shard state to the spare list (first arrival first, so the
   next config's shards take them in the same order). *)
let release t =
  t.spare <- List.map snd t.shards @ t.spare;
  t.shards <- []

let configure t ~n ~family ~eps ~cells ~seed =
  if n < 1 then Error "n must be positive"
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
        (* Configs cycling hypotheses over one (n, cells) keep their
           storage; a new partition drops it for the collector. *)
        (match t.acc with
        | Some acc when Suffstat.fits acc part -> release t
        | Some _ | None ->
            t.shards <- [];
            t.spare <- [];
            t.acc <- None);
        Ok config

let err_not_configured = "not configured (send a config request first)"

(* Storage for a new shard: a spare cleared in place when one is left,
   else a fresh sibling of the accumulator, which the first shard over a
   partition creates (so [configure] itself allocates nothing). *)
let new_state t config =
  match t.spare with
  | st :: rest ->
      t.spare <- rest;
      Suffstat.clear st;
      st
  | [] ->
      let acc =
        match t.acc with
        | Some acc -> acc
        | None ->
            let acc = Suffstat.create ~part:config.part in
            t.acc <- Some acc;
            acc
      in
      Suffstat.empty_like acc

let shard_state t name =
  match t.config with
  | None -> Error err_not_configured
  | Some config -> (
      match List.assoc_opt name t.shards with
      | Some st -> Ok st
      | None ->
          let st = new_state t config in
          t.shards <- t.shards @ [ (name, st) ];
          Ok st)

let observe t ~shard xs =
  match shard_state t shard with
  | Error _ as e -> e
  | Ok st -> (
      match Suffstat.observe_all st xs with
      | () -> Ok (Suffstat.total st)
      | exception Invalid_argument msg -> Error msg)

let observe_counts t ~shard counts =
  match shard_state t shard with
  | Error _ as e -> e
  | Ok st -> (
      match Suffstat.observe_counts st counts with
      | () -> Ok (Suffstat.total st)
      | exception Invalid_argument msg -> Error msg)

(* Clear-and-fold into the config's accumulator: one pass of integer adds
   over the shards and no O(n) allocation per verdict.  The fold order is
   arrival order, so the result is bitwise [Suff_fold.reduce] over the
   shards. *)
let merged t =
  match (t.shards, t.acc) with
  | [], _ | _, None -> None
  | shards, Some acc ->
      Suffstat.clear acc;
      List.iter (fun (_, st) -> Suffstat.merge_into ~into:acc st) shards;
      Some acc

let shards t = t.shards

type verdict_info = {
  verdict : Verdict.t;
  z : float;
  threshold : float;
  total : int;
  shard_count : int;
}

let verdict_info t =
  match t.config with
  | None -> Error "not configured (send a config request first)"
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
              shard_count = List.length t.shards;
            })

let reset = release

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
          (fun (name, st) ->
            Jsonl.Obj
              [
                ("name", Jsonl.Str name);
                ("total", Jsonl.Num (float_of_int (Suffstat.total st)));
              ])
          t.shards
      in
      let total =
        List.fold_left (fun acc (_, st) -> acc + Suffstat.total st) 0 t.shards
      in
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

(* --- replay: the determinism gate --- *)

type replay_report = {
  shards : int;
  total : int;
  single_verdict : Verdict.t;
  single_z : float;
  fold_verdict : Verdict.t;
  fold_z : float;
  tree_verdict : Verdict.t;
  tree_z : float;
  identical : bool;
}

let replay ?pool ~part ~dstar ~eps ~shards values =
  if shards < 1 then invalid_arg "Service.replay: shards < 1";
  if Array.length values = 0 then invalid_arg "Service.replay: empty corpus";
  let pool =
    match pool with Some p -> p | None -> Parkit.Pool.get_default ()
  in
  let single = Suffstat.create ~part in
  Suffstat.observe_all single values;
  (* Round-robin sharding, intra-shard order preserved; each shard's
     state is built on its own pool domain (shard-per-domain). *)
  let parts =
    Parkit.Pool.init pool shards (fun s ->
        let st = Suffstat.create ~part in
        let i = ref s in
        while !i < Array.length values do
          Suffstat.observe st values.(!i);
          i := !i + shards
        done;
        st)
  in
  let z_and_verdict st =
    let stat = Suffstat.statistic st ~dstar ~eps in
    let threshold = Chi2stat.accept_threshold ~m:stat.Chi2stat.m ~eps in
    ( stat.Chi2stat.z,
      if stat.Chi2stat.z <= threshold then Verdict.Accept else Verdict.Reject )
  in
  let folded = Suff_fold.reduce parts in
  let treed = Suff_fold.tree_reduce parts in
  let single_z, single_verdict = z_and_verdict single in
  let fold_z, fold_verdict = z_and_verdict folded in
  let tree_z, tree_verdict = z_and_verdict treed in
  let identical =
    Suffstat.equal single folded && Suffstat.equal single treed
    && Float.equal single_z fold_z
    && Float.equal single_z tree_z
    && Verdict.equal single_verdict fold_verdict
    && Verdict.equal single_verdict tree_verdict
  in
  {
    shards;
    total = Array.length values;
    single_verdict;
    single_z;
    fold_verdict;
    fold_z;
    tree_verdict;
    tree_z;
    identical;
  }

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

let is_ingest = function
  | S_fast _ | S_req (Wire.Observe _) | S_req (Wire.Counts _) -> true
  | S_req _ | S_err _ -> false

let shard_of_slot = function
  | S_fast { Scan.shard; _ }
  | S_req (Wire.Observe { shard; _ })
  | S_req (Wire.Counts { shard; _ }) ->
      shard
  | S_req _ | S_err _ -> assert false

(* Module-level so the grouping loop allocates no closure per slot, and
   raising instead of returning an option keeps the hit path (every slot
   after a shard's first) allocation-free. *)
let[@histolint.hot] rec find_group groups shard =
  match groups with
  | [] -> raise Not_found
  | ((s, _, _) as g) :: rest ->
      if String.equal s shard then g else find_group rest shard

(* Execute one ingest slot against its shard state.  Mirrors [observe] /
   [observe_counts] exactly — including partial ingestion before an
   out-of-domain element, and the error messages. *)
let exec_ingest_slot arena st slot =
  match slot with
  | S_fast { Scan.kind = Scan.Observe; shard; off; len } -> (
      match Suffstat.observe_sub st arena ~pos:off ~len with
      | () -> R_observe_ok { shard; added = len; total = Suffstat.total st }
      | exception Invalid_argument msg -> R_error msg)
  | S_fast { Scan.kind = Scan.Counts; shard; off; len } -> (
      let counts = Array.sub arena off len in
      match Suffstat.observe_counts st counts with
      | () -> R_counts_ok { shard; total = Suffstat.total st }
      | exception Invalid_argument msg -> R_error msg)
  | S_req (Wire.Observe { shard; xs }) -> (
      match Suffstat.observe_all st xs with
      | () ->
          R_observe_ok
            { shard; added = Array.length xs; total = Suffstat.total st }
      | exception Invalid_argument msg -> R_error msg)
  | S_req (Wire.Counts { shard; counts }) -> (
      match Suffstat.observe_counts st counts with
      | () -> R_counts_ok { shard; total = Suffstat.total st }
      | exception Invalid_argument msg -> R_error msg)
  | S_req _ | S_err _ -> assert false

(* A maximal run of consecutive ingest slots [i, j): group by shard
   (shard states created sequentially in arrival order, so first-arrival
   semantics and `stats` output are unchanged), then ingest the groups in
   parallel — one pool domain owns a whole shard group, and items within
   a group run in arrival order, so every shard state sees exactly the
   sequence of mutations sequential serve would apply.  Each group
   writes its own [resp] slots (disjoint indices, so parallel groups
   never touch the same cell; the pool join orders those writes before
   the render loop reads them). *)
let exec_run t pool arena_ws slots resp i j =
  if Option.is_none t.config then
    for k = i to j - 1 do
      resp.(k) <- R_error err_not_configured
    done
  else begin
    let arena = Scan.buffer arena_ws in
    let groups = ref [] in
    (* rev order of first arrival; each group's slot list is also in rev
       arrival order *)
    for k = i to j - 1 do
      let shard = shard_of_slot slots.(k) in
      let ks =
        match find_group !groups shard with
        | _, _, ks -> ks
        | exception Not_found ->
            let st =
              match shard_state t shard with
              | Ok st -> st
              | Error _ -> assert false (* configured above *)
            in
            let ks = ref [] in
            groups := (shard, st, ks) :: !groups;
            ks
      in
      ks := k :: !ks
    done;
    match !groups with
    | [ (_, st, ks) ] ->
        (* single shard in the run (batch=1 included): no dispatch *)
        List.iter
          (fun k -> resp.(k) <- exec_ingest_slot arena st slots.(k))
          (List.rev !ks)
    | groups ->
        let garr = Array.of_list (List.rev groups) in
        let run_group (_, st, ks) =
          (* iterate arrival-ordered so mutations happen in arrival
             order *)
          List.iter
            (fun k -> resp.(k) <- exec_ingest_slot arena st slots.(k))
            (List.rev !ks)
        in
        if Parkit.Pool.jobs pool = 1 then Array.iter run_group garr
        else
          (Parkit.Pool.iter
             pool run_group garr
           [@histolint.disjoint
             "groups partition the run's k-indices, so each task writes \
              its own resp slots and owns its shard state's counts and \
              accumulators exclusively: a recycled spare state is handed \
              to exactly one shard name, and cleared during grouping, \
              before dispatch; the element-to-cell table the shard states \
              share is read-only after creation; the pool join publishes \
              the writes before the render loop reads them"])
  end

(* Execute a parsed batch in request order; non-ingest requests are
   barriers (config/verdict/stats read or reset the shard registry).
   Returns the index of a quit request, if any — slots after it are
   dropped unanswered, exactly as sequential serve never reads them. *)
let exec_batch t pool arena slots resp k =
  let stop = ref None in
  let i = ref 0 in
  while !i < k && Option.is_none !stop do
    if is_ingest slots.(!i) then begin
      let j = ref (!i + 1) in
      while !j < k && is_ingest slots.(!j) do
        incr j
      done;
      exec_run t pool arena slots resp !i !j;
      i := !j
    end
    else begin
      (match slots.(!i) with
      | S_err msg -> resp.(!i) <- R_error msg
      | S_req req ->
          let json, continue = handle_request t req in
          resp.(!i) <- R_json json;
          if not continue then stop := Some !i
      | S_fast _ -> assert false);
      incr i
    end
  done;
  !stop

type serve_stats = {
  requests : int;
  values : int;
  fast_hits : int;
  strict_parses : int;
  batches : int;
}

(* Matches the whitespace class of [String.trim]: the legacy serve loop
   skipped lines that trim to "". *)
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
   arena (128 KiB of ints): batching amortizes syscalls and parallelizes
   ingest, but an unbounded arena outgrows the cache — the ingest pass
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
    pool : Parkit.Pool.t;
    fast_path : bool;
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

  let create ?pool ?(batch = 1) ?(fast_path = true) service =
    if batch < 1 then invalid_arg "Service.Batch.create: batch < 1";
    let pool =
      match pool with Some p -> p | None -> Parkit.Pool.get_default ()
    in
    {
      service;
      pool;
      fast_path;
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
        if e.fast_path then
          match Scan.scan_sub e.arena line ~pos ~len with
          | Some h ->
              e.fast_hits <- e.fast_hits + 1;
              e.values <- e.values + h.Scan.len;
              S_fast h
          | None -> strict e (String.sub line pos len)
        else strict e (String.sub line pos len)
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
      let stop = exec_batch e.service e.pool e.arena e.slots e.resp e.k in
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

let serve ?pool ?(batch = 1) ?(fast_path = true) t ~read_line ~write =
  if batch < 1 then invalid_arg "Service.serve: batch < 1";
  let ex = Batch.create ?pool ~batch ~fast_path t in
  let out = Buffer.create 65536 in
  let continue = ref true in
  while !continue do
    let eof = ref false in
    (* Block until one request is staged (blank lines re-block, exactly
       as the pre-Batch loop did) ... *)
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

(* --- corpus files (shared by --replay and its error reporting) --- *)

let corpus_of_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let values = ref [] in
      let lineno = ref 0 in
      let bad = ref None in
      (try
         while Option.is_none !bad do
           let line = input_line ic in
           incr lineno;
           let line = String.trim line in
           if String.length line > 0 then
             match int_of_string_opt line with
             | Some v -> values := v :: !values
             | None ->
                 bad := Some (Printf.sprintf "%s:%d: not an integer" path !lineno)
         done
       with End_of_file -> ());
      close_in ic;
      (match !bad with
      | Some msg -> Error msg
      | None -> Ok (Array.of_list (List.rev !values)))

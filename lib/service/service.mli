(** The [histotestd] engine: testing as aggregation.

    The service keeps one {!Suffstat} per shard (assoc list in
    first-arrival order — deterministic iteration, no hash order), merges
    them with a left fold in that order into one reused accumulator, and
    recomputes the accept/reject verdict from the merged state on demand.
    Because every verdict-relevant field of [Suffstat] is integral, the
    served verdict is bit-identical to a single process holding the
    concatenated stream, whatever the sharding or merge topology — the
    contract [replay] checks and the E20 bench gates. *)

type config = {
  n : int;
  family : string;
  eps : float;
  cells : int;
  seed : int;
  dstar : Pmf.t;  (** the hypothesis distribution *)
  part : Partition.t;  (** equal-width diagnostic partition, [cells] cells *)
}

type t

val create : ?cache_capacity:int -> unit -> t
(** [cache_capacity] bounds the structure cache (default
    {!Structcache.default_capacity}). *)

val cache_stats : t -> Structcache.stats
(** Introspection over the hypothesis-structure cache (also served as
    the [cache_stats] wire request). *)

val family_of_spec : n:int -> seed:int -> string -> (Pmf.t, string) result
(** The CLI family vocabulary (["staircase:4"], ["zipf:1.2"], …) minus the
    lower-bound instances. *)

val configure :
  t ->
  n:int ->
  family:string ->
  eps:float ->
  cells:int option ->
  seed:int ->
  (config, string) result
(** Set the hypothesis and start every shard from zero.  When the new
    partition equals the accumulator's (same [n] and [cells], whatever
    the family or seed), the shard states are released to a spare list
    rather than dropped: later new shards take them, cleared in place,
    instead of allocating O(n) each, and the accumulator and its
    element-to-cell table carry over.  The engine then holds at most the
    most shard states it ever held live over this partition.  A new
    partition drops the states and the spares. *)

val observe : t -> shard:string -> int array -> (int, string) result
(** Batch-ingest observations into a shard (created on first use);
    returns the shard's new total. *)

val observe_counts : t -> shard:string -> int array -> (int, string) result
(** Bulk-add a count vector into a shard; returns the shard's new total. *)

val merged : t -> Suffstat.t option
(** Left-fold merge of all shards in arrival order; [None] when no shard
    exists yet.  The result is a view of the engine's accumulator, not a
    fresh state: it is cleared and refilled in place (no O(n)
    allocation per call), stays valid until the next [merged],
    [configure], [reset] or ingest, and must not be mutated.  Bitwise
    equal to [Suffstat.merge] folded over the shards; the per-shard
    states are not mutated. *)

val shards : t -> (string * Suffstat.t) list
(** The live per-shard states, in first-arrival order.  Read-only by
    convention: callers must not mutate the states (tests use this to
    pin socket-served shard state against a single-process replay).
    After a [configure] or [reset] a state may be recycled for a later
    shard, so a state read here describes its shard only until then. *)

type verdict_info = {
  verdict : Verdict.t;
  z : float;
  threshold : float;
  total : int;
  shard_count : int;
}

val verdict_info : t -> (verdict_info, string) result
(** Merge and test: the χ² statistic of the merged counts against the
    configured hypothesis at the plug-in mean [m = total]. *)

val reset : t -> unit
(** Start every shard from zero, keep the configuration; the shard
    states go to the spare list, as on a [configure] over the same
    partition. *)

val handle_request : t -> Wire.request -> Jsonl.t * bool
val handle_line : t -> string -> Jsonl.t * bool
(** One protocol step; the boolean is false after a [quit] request. *)

type serve_stats = {
  requests : int;  (** answered requests (quit drops the batch's tail) *)
  values : int;  (** payload elements decoded across observe/counts *)
  fast_hits : int;  (** lines decoded by the {!Scan} fast path *)
  strict_parses : int;  (** lines that went through the strict parser *)
  batches : int;  (** flushes — one per executed batch *)
}

module Batch : sig
  type exec
  (** A batch executor: the engine behind {!serve}, exposed so transport
      front-ends (the stdio loop, the {!Netio} reactor) can feed it lines
      from their own event sources.  One executor per request stream; it
      owns the fast-path arena and the slot/response buffers, all reused
      across batches. *)

  val create :
    ?pool:Parkit.Pool.t -> ?batch:int -> ?fast_path:bool -> t -> exec
  (** Same parameters and defaults as {!serve} ([batch] defaults to 1,
      [fast_path] to true, [pool] to [Parkit.Pool.get_default ()]).
      @raise Invalid_argument if [batch < 1]. *)

  val count : exec -> int
  (** Requests staged in the current (unexecuted) batch. *)

  val want_more : exec -> bool
  (** Whether another {!push} is acceptable: the batch has a free slot
      and the decoded-payload arena is still under its cache-residency
      budget.  Callers must check this before every push. *)

  val push : exec -> string -> unit
  (** Parse one request line into the next slot — {!Scan} fast path
      first when enabled, strict parser otherwise.  Blank lines are
      skipped without consuming a slot, exactly as {!serve} skips them.
      @raise Invalid_argument when [want_more] is false. *)

  val push_sub : exec -> string -> pos:int -> len:int -> unit
  (** [push] on the window [\[pos, pos + len)] of the string, without
      materializing the substring on the fast path — the socket
      reactor's zero-copy feed.  Decodes identically to [push] on the
      corresponding substring; the window must be in bounds (unchecked).
      The executor never retains a reference into [line] past the call
      (fast-path payloads land in the arena, the shard id is copied, and
      strict-parser fallbacks copy the substring), so transports may
      reuse the underlying buffer immediately.
      @raise Invalid_argument when [want_more] is false. *)

  val execute : exec -> out:Buffer.t -> bool
  (** Execute the staged batch with the sequential-equivalence contract
      of {!serve} (non-ingest barriers, shard-grouped parallel ingest,
      responses in request order) and append the newline-terminated
      responses to [out].  Returns false when the batch contained a
      [quit] — staged requests after it are dropped unanswered.  The
      executor is cleared and ready for the next batch either way;
      executing an empty batch is a no-op returning true. *)

  val clear : exec -> unit
  (** Drop any staged-but-unexecuted requests (a transport closing a
      connection mid-fill calls this before reusing the executor). *)

  val stats : exec -> serve_stats
  (** Cumulative counters since creation (or the last [reset_stats]). *)

  val reset_stats : exec -> unit
  (** Zero the counters — used by transports that pool executors across
      connections and account per-connection deltas on close. *)
end

val serve :
  ?pool:Parkit.Pool.t ->
  ?batch:int ->
  ?fast_path:bool ->
  t ->
  read_line:(block:bool -> string option) ->
  write:(Buffer.t -> unit) ->
  serve_stats
(** The batched, pipelined serve loop, abstracted over transport.

    Per iteration: block for one request line, drain up to [batch - 1]
    more that are available without blocking ([read_line ~block:false]
    returning [None] just cuts the batch short; with [~block:true] it
    means end of input), parse each line — {!Scan} fast path first when
    [fast_path] (default true), strict parser otherwise — then execute
    the batch and hand one buffer of newline-terminated responses to
    [write] (one flush per batch).

    Execution preserves the sequential semantics exactly: non-ingest
    requests are barriers processed in request order; maximal runs of
    consecutive observe/counts requests are grouped by shard and the
    groups ingested in parallel on [pool] (default
    [Parkit.Pool.get_default ()]) with per-shard arrival order intact,
    so every [Suffstat] sees the mutation sequence sequential serve
    would apply and the response transcript is byte-identical at any
    (batch, jobs) — the contract E21 gates.  Responses come back in
    request order; requests after a [quit] in the same batch are
    dropped unanswered, exactly as a sequential loop would never have
    read them.
    @raise Invalid_argument if [batch < 1]. *)

val rendered_observe_ok : shard:string -> added:int -> shard_total:int -> string
val rendered_counts_ok : shard:string -> shard_total:int -> string
val rendered_error : string -> string
(** The direct renderings the batch path writes for the hot responses —
    exposed so tests can pin them byte-for-byte against
    [Jsonl.to_string (Wire.ok [...])] / [Wire.error]. *)

val corpus_of_file : string -> (int array, string) result
(** Read a replay corpus (one integer per line, blank lines skipped).
    [Error "<path>:<lineno>: not an integer"] on the first malformed
    line; [Error] with the system message if the file cannot be opened. *)

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
      (** merged counts, statistics and verdicts all bit-equal to the
          single-process run *)
}

val replay :
  ?pool:Parkit.Pool.t ->
  part:Partition.t ->
  dstar:Pmf.t ->
  eps:float ->
  shards:int ->
  int array ->
  replay_report
(** Prove the determinism contract on a concrete corpus: ingest the values
    single-process, then round-robin across [shards] shard states (each
    built on its own pool domain), merge under both the left-fold and the
    balanced-tree topology, and compare counts, statistics and verdicts
    bit for bit.  @raise Invalid_argument on an empty corpus or
    [shards < 1]. *)

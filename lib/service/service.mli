(** The [histotestd] engine: testing as aggregation.

    The service keeps one {!Suffstat} per config, the accumulator, and
    adds every shard's traffic straight into it; a shard is just a name
    (reported in first-arrival order) and the running total of what it
    contributed.  The verdict is computed from the accumulator on demand.
    Because every verdict-relevant field of [Suffstat] is integral, the
    accumulator is bitwise the merge of the count vectors the shards
    would have held on their own, and the served verdict is bit-identical
    to a single process holding the concatenated stream, whatever the
    sharding or merge topology — the contract the E20 bench gates.  So
    the engine holds one n-vector per config, and a new shard name costs
    O(1) words. *)

type config = {
  n : int;
  family : string;
  eps : float;
  cells : int;
  seed : int;
  dstar : Families.hypothesis;
      (** the hypothesis distribution, in its family's form: a piecewise
          family's cells and levels, a dense family's pmf *)
  part : Partition.t;  (** equal-width diagnostic partition, [cells] cells *)
}

type t

val create : unit -> t
(** A service with no config and an empty structure cache (at most 16
    hypotheses whose costs — n for a dense one, pieces plus cells for a
    piecewise one — sum to at most [2 * max_n]). *)

val cache_stats : t -> Structcache.stats
(** Introspection over the hypothesis-structure cache (also served as
    the [cache_stats] wire request). *)

val family_of_spec : n:int -> seed:int -> string -> (Pmf.t, string) result
(** {!Families.of_spec} drawing from a fresh generator seeded with
    [seed]: the hypothesis a config with that spec and seed holds,
    expanded to a pmf. *)

val max_n : int
[@@histolint.keep "wire limit; test_service reads it, not a copy"]
(** The largest domain [configure] accepts, 2^22: every config's count
    vector holds n words (a dense hypothesis n floats more; a piecewise
    one only its pieces; the partition up to n cells), so the bound is
    what keeps one request from exhausting memory. *)

val max_shards : int
[@@histolint.keep "wire limit; test_service reads it, not a copy"]
(** The most shard names one config holds, 2^12: each name costs a table
    entry and its string.  A request naming a new shard past the cap gets
    a wire error and changes nothing.  Names are at most
    {!Scan.max_shard_bytes} long: an ingest request with a longer id gets
    the wire error ["shard id longer than 256 bytes"] and changes
    nothing, whichever parser decoded it. *)

val configure :
  t ->
  n:int ->
  family:string ->
  eps:float ->
  cells:int option ->
  seed:int ->
  (config, string) result
(** Set the hypothesis and start from zero: no shards, an empty
    accumulator.  When the new partition equals the accumulator's (same
    [n] and [cells], whatever the family or seed), the accumulator
    carries over, cleared in place; a new partition replaces it with a
    fresh one.  A refused config ([n] outside [\[1, max_n\]], [eps]
    outside (0, 1), an unknown family) changes nothing, and [n] is
    checked before anything is built. *)

val observe : t -> shard:string -> int array -> (int, string) result
(** Batch-ingest observations on behalf of a shard; returns the shard's
    new total, or the wire error.  On an out-of-domain element the prefix
    before it stays ingested and counted in the shard's total.  A new
    name is registered only when the request succeeds or adds at least
    one value, so a rejected request leaves no empty shard behind; a new
    name past {!max_shards} is refused. *)

val merged : t -> Suffstat.t option
(** The accumulator — every shard's traffic since the last [configure]
    or reset command; [None] when no shard exists yet.  A view, not a
    copy: no fold per call.  It keeps changing with later ingest and is
    cleared by [configure] and the reset command; callers must not
    mutate it.  Equal, counts and total, to [Suffstat.merge] folded over
    per-shard states holding the same traffic. *)

val shard_totals : t -> (string * int) list
[@@histolint.keep "[stats] renders it; test_service checks it"]
(** Each live shard with the number of values it contributed, in
    first-arrival order (what the [stats] request reports).  The totals
    sum to the accumulator's total. *)

val shards : t -> (string * Suffstat.t) list
(** Each live shard name, in first-arrival order, paired with the
    accumulator (the same state for every name: shards keep no counts of
    their own).  Read-only by convention, like {!merged}. *)

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

val handle_line : t -> Buffer.t -> string -> bool
(** One protocol step: parse the line with the strict parser, run the
    request and append its response, without a newline, to the buffer.
    False after a [quit] request.  Every response kind has one renderer,
    shared with {!Batch.execute}: ingest responses and errors are
    written straight into the buffer, the other commands print their
    [Wire.ok] tree. *)

type serve_stats = {
  requests : int;  (** answered requests (quit drops the batch's tail) *)
  values : int;  (** payload elements decoded across observe/counts *)
  fast_hits : int;  (** lines decoded by the {!Scan} fast path *)
  strict_parses : int;  (** lines that went through the strict parser *)
  batches : int;  (** flushes — one per executed batch *)
}

module Batch : sig
  type exec
  (** A batch executor: the engine behind {!serve}, exposed so the
      {!Netio} reactor, the daemon's serve loop, can feed it lines from
      its own event sources.  One executor per request stream; it
      owns the fast-path arena and the slot/response buffers, all reused
      across batches. *)

  val max_batch : int
  (** 4096: the largest [batch] an executor takes.  An executor
      preallocates its slots, so the bound caps what one executor
      holds. *)

  val create : ?pool:Parkit.Pool.t -> ?batch:int -> t -> exec
  (** Same parameters and defaults as {!serve} ([batch] defaults to 1;
      [pool] is ignored, as there).
      @raise Invalid_argument if [batch < 1] or [batch > max_batch]. *)

  val count : exec -> int
  (** Requests staged in the current (unexecuted) batch. *)

  val want_more : exec -> bool
  (** Whether another {!push} is acceptable: the batch has a free slot
      and the decoded-payload arena is still under its cache-residency
      budget.  Callers must check this before every push. *)

  val push : exec -> string -> unit
  [@@histolint.keep "[serve] runs it; test_service cuts batches with it"]
  (** Parse one request line into the next slot — {!Scan} fast path
      first, the strict parser for every line it declines.  Blank lines are
      skipped without consuming a slot, exactly as {!serve} skips them.
      @raise Invalid_argument when [want_more] is false. *)

  val push_sub : exec -> string -> pos:int -> len:int -> unit
  (** [push] on the window [\[pos, pos + len)] of the string, without
      materializing the substring on the fast path — the socket
      reactor's zero-copy feed.  Decodes identically to [push] on the
      corresponding substring; the window must be in bounds (unchecked).
      The executor never retains a reference into [line] past the call
      (fast-path payloads land in the arena, the shard id is interned,
      and strict-parser fallbacks copy the substring), so transports may
      reuse the underlying buffer immediately.  A fast-path line whose
      shard id is already interned allocates nothing.
      @raise Invalid_argument when [want_more] is false. *)

  val execute : exec -> out:Buffer.t -> bool
  (** Execute the staged batch with the sequential-equivalence contract
      of {!serve} (requests applied one by one in request order,
      responses in request order), appending each newline-terminated
      response to [out] as its request runs; accepted fast-path slots
      allocate nothing.  Returns false when the batch contained a [quit]
      — staged requests after it are dropped unanswered.  The executor
      is cleared and ready for the next batch either way; executing an
      empty batch is a no-op returning true. *)

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
  t ->
  read_line:(block:bool -> string option) ->
  write:(Buffer.t -> unit) ->
  serve_stats
(** The batched, pipelined serve loop, abstracted over transport: the
    in-process engine tests and benches compare the daemon against
    (the daemon itself runs the {!Netio} reactor over the same
    {!Batch} executor).

    Per iteration: block for one request line, drain up to [batch - 1]
    more that are available without blocking ([read_line ~block:false]
    returning [None] just cuts the batch short; with [~block:true] it
    means end of input), parse each line — {!Scan} fast path first, the
    strict parser for every line it declines — then execute
    the batch and hand one buffer of newline-terminated responses to
    [write] (one flush per batch).

    Execution preserves the sequential semantics exactly: the batch's
    requests run one by one in request order on the calling domain,
    each through the protocol step {!handle_line} takes (a fast-path
    line skips only the strict parse), so the response transcript is
    byte-identical at any [batch], and to {!handle_line} applied line by
    line — the contract E21 gates.  Requests after a [quit] in the
    same batch are dropped unanswered, exactly as a sequential loop
    would never have read them.  [pool] is accepted for compatibility
    and ignored: ingest is a few integer adds per value into one
    accumulator, and shard-parallel ingest never measured faster on
    the hosts it was tried on (EXPERIMENTS.md, E21).
    @raise Invalid_argument if [batch < 1] or
    [batch > Batch.max_batch]. *)

val rendered_error : string -> string
(** The wire error response for a message, as {!handle_line} writes it:
    [{"ok":false,"error":msg}]. *)

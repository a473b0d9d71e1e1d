(** Event-driven transport for [histotestd]: a single-threaded reactor
    over [Unix.select] serving many concurrent connections from one
    shared deterministic engine.  A connection is an accepted socket or
    a pipe pair ({!add_pipe}: the daemon's stdin/stdout), so the daemon
    runs this one loop in every mode.

    Per-connection state machines own a hardened line {!Reader}, a
    pooled {!Service.Batch} executor (the Scan fast path and
    allocation-free ingest), and a bounded
    outbound queue flushed only when the output is writable — slow
    clients get backpressure (the reactor stops reading them past
    [max_pending_bytes]) and never stall anyone else.  Per-connection
    response streams are byte-identical to the line-at-a-time oracle
    [Refkit.Strict_serve] (test-only) on the same request stream; the
    engine is shared, so shards aggregate across clients exactly as one
    process replaying the merged arrival order (the contracts E21 over a
    pipe pair, E22 over sockets and the socketpair tests gate). *)

(** The buffered line reader: one [read(2)] per refill, an
    O(1)-amortized newline scan (a watermark prevents rescans on
    trickled input), and a hard per-line byte bound. *)
module Reader : sig
  type t

  val default_max_line_bytes : int
  (** 1 MiB. *)

  val create : ?max_line_bytes:int -> Unix.file_descr -> t
  (** Buffer starts at 64 KiB and doubles as needed, bounded by the
      line-length check.  A line longer than [max_line_bytes] (default
      {!default_max_line_bytes}) makes {!next_span} return [`Too_long].
      @raise Invalid_argument if [max_line_bytes < 1]. *)

  val reset : t -> Unix.file_descr -> unit
  (** Rebind a parked reader to a fresh fd, dropping all buffered state —
      the reactor pools readers across connections. *)

  val refill : t -> [ `Data of int | `Eof | `Would_block ]
  (** One [read(2)].  [`Would_block] on a non-blocking fd with nothing
      ready (EAGAIN/EINTR); [`Eof] at end of stream (sticky, and
      ECONNRESET counts as EOF). *)

  val next_span : t -> [ `Span of int * int | `Pending | `Eof | `Too_long ]
  (** Pop one complete buffered line, newline stripped, without
      touching the fd: [`Span (pos, len)] indexes {!contents} and is
      valid only until the next {!refill} or {!reset} (either may move
      the buffer).  The reactor feeds spans to
      [Service.Batch.push_sub], which copies anything it keeps.  At EOF
      a final unterminated line is delivered first, like [input_line];
      then [`Eof], for good.  [`Pending]: no complete line buffered.
      [`Too_long]: a line exceeded [max_line_bytes]; the reader is
      poisoned and returns [`Too_long] forever — answer with a wire
      error and close. *)

  val contents : t -> Bytes.t
  (** The live internal buffer [`Span] offsets index.  Read-only, and
      only meaningful between a [next_span] and the refill after it. *)
end

val nursery_words : int
(** 32768 words (256 KiB): the minor heap [histotestd] serves with, in
    stdio and socket mode alike (both are reactor connections).  Once a
    config is set, the serve path allocates only short-lived transport
    words — about 44 per reactor [select] round and 6 per
    {!Reader.next_span} line; no line is copied into a string of its
    own — and almost none of them survive a minor collection, so the
    runtime's default 256k-word (2 MiB) nursery is resident memory the
    daemon fills once and never needs.  The daemon only ever shrinks its
    minor heap to this size (an [OCAMLRUNPARAM=s=] below it wins); that
    shrink is the project's only GC setting, and the library itself
    never changes one. *)

(** Where to listen. *)
type listen_addr =
  | Tcp of string * int  (** host ("" or "*" = all interfaces) and port *)
  | Unix_path of string

val addr_of_string : string -> (listen_addr, string) result
(** ["HOST:PORT"], [":PORT"] or ["PORT"] (empty host = all interfaces). *)

val pp_addr : listen_addr -> string

val listener : listen_addr -> Unix.file_descr
(** Create, bind and listen a non-blocking listening socket
    (SO_REUSEADDR on TCP; a stale socket {e file} is unlinked for
    [Unix_path]).  Exceptions from [Unix] propagate. *)

val bound_port : Unix.file_descr -> int
(** The actual port of a TCP listener — for [Tcp (_, 0)] ephemeral
    binds in tests and benches.
    @raise Invalid_argument on a Unix-domain socket. *)

type stats = {
  accepted : int;  (** connections ever admitted *)
  active : int;  (** connections currently open *)
  closed : int;
  overlong : int;  (** connections dropped for exceeding max_line_bytes *)
  write_drops : int;  (** connections that vanished mid-write (EPIPE) *)
  peak_pending : int;
      (** high-water mark of any connection's outbound queue, in bytes —
          bounded by [max_pending_bytes] plus one batch of responses *)
  engine : Service.serve_stats;  (** aggregated over all connections *)
}

type t
(** A reactor.  Single-threaded: every function here must be called from
    the thread that created it. *)

val create_reactor :
  ?batch:int ->
  ?max_conns:int ->
  ?max_line_bytes:int ->
  ?max_pending_bytes:int ->
  service:Service.t ->
  listeners:Unix.file_descr list ->
  unit ->
  t
(** [batch] sizes each connection's {!Service.Batch} executor
    (default 64 here — the daemon's default).  [max_conns] (default 64)
    stops accepting — the kernel backlog queues the excess — until a
    connection closes.
    [max_line_bytes] (default 1 MiB) bounds request lines: an over-long
    line gets one wire error response and the connection is closed.
    [max_pending_bytes] (default 8 MiB) is the backpressure threshold on
    a connection's outbound queue.  SIGPIPE is set to ignore (a dying
    client must surface as EPIPE, not kill the daemon).
    @raise Invalid_argument on non-positive parameters, and on a
    [batch] above {!Service.Batch.max_batch}. *)

val add_connection : t -> Unix.file_descr -> unit
[@@histolint.keep "the accept path runs it; test_netio hands it socketpair ends"]
(** Adopt an already-connected stream socket (the accept path uses this;
    tests hand in socketpair ends).  The fd is set non-blocking and
    counts toward [accepted]/[max_conns]. *)

val add_pipe : t -> input:Unix.file_descr -> output:Unix.file_descr -> unit
(** Adopt a read fd and a separate write fd as one connection — the
    daemon's stdin/stdout.  Their mode is left as it is (inherited
    stdio is shared with the parent's pipeline, so [O_NONBLOCK] is
    never set): [input] is read only once select reports it readable,
    and writes to a blocking [output] block.  Closing the connection
    closes both fds, so the reader of [output] sees EOF.  Counts toward
    [accepted]/[max_conns]. *)

val step : t -> timeout:float -> unit
(** One reactor round: select on (listeners + readable-interest
    connections, connections with pending output) with [timeout]
    seconds, then write, accept, read, execute and flush.  Returns after
    at most one select — tests drive the reactor deterministically by
    interleaving [step] with client I/O. *)

val active : t -> int
val accepted : t -> int
val stats : t -> stats

val overlong_error : int -> string
[@@histolint.keep "test_netio and test_daemon expect its bytes"]
(** The rendered wire error sent before closing an over-long-line
    connection — exposed so tests expect the same bytes. *)

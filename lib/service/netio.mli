(** Event-driven socket transport for [histotestd]: a single-threaded
    reactor over [Unix.select] serving many concurrent connections from
    one shared deterministic engine.

    Per-connection state machines own a hardened line {!Reader}, a
    pooled {!Service.Batch} executor (the same Scan fast path and
    allocation-free ingest as stdio serve), and a bounded
    outbound queue flushed only when the socket is writable — slow
    clients get backpressure (the reactor stops reading them past
    [max_pending_bytes]) and never stall anyone else.  Per-connection
    response streams are byte-identical to stdio serve on the same
    request stream; the engine is shared, so shards aggregate across
    clients exactly as one process replaying the merged arrival
    order (the contracts E22 and the socketpair tests gate). *)

(** The buffered line reader formerly inlined in [bin/histotestd.ml],
    extracted and hardened: non-blocking refills, an O(1)-amortized
    newline scan (a watermark prevents rescans on trickled input), and a
    hard per-line byte bound. *)
module Reader : sig
  type result =
    | Line of string  (** one complete line, newline stripped *)
    | Pending  (** no complete line buffered; read more first *)
    | Eof  (** stream ended and every buffered line was delivered *)
    | Too_long
        (** a line exceeded [max_line_bytes]; the reader is poisoned and
            returns [Too_long] forever — answer with a wire error and
            close *)

  type t

  val default_max_line_bytes : int
  (** 1 MiB. *)

  val create : ?max_line_bytes:int -> Unix.file_descr -> t
  (** Buffer starts at 64 KiB and doubles as needed, bounded by the
      line-length check.  A line longer than [max_line_bytes] (default
      {!default_max_line_bytes}) makes the reader return [Too_long].
      @raise Invalid_argument if [max_line_bytes < 1]. *)

  val reset : t -> Unix.file_descr -> unit
  (** Rebind a parked reader to a fresh fd, dropping all buffered state —
      the reactor pools readers across connections. *)

  val buffered : t -> int
  [@@histolint.keep "[step] runs it; test_netio pins it directly"]
  (** Unconsumed bytes currently buffered. *)

  val refill : t -> [ `Data of int | `Eof | `Would_block ]
  (** One [read(2)].  [`Would_block] on a non-blocking fd with nothing
      ready (EAGAIN/EINTR); [`Eof] at end of stream (sticky, and
      ECONNRESET counts as EOF). *)

  val next : t -> result
  [@@histolint.keep "[step] runs it; test_netio pins it directly"]
  (** Pop one complete buffered line; never touches the fd.  At EOF a
      final unterminated line is delivered first, like [input_line]. *)

  val next_span : t -> [ `Span of int * int | `Pending | `Eof | `Too_long ]
  (** [next] without the line allocation: [`Span (pos, len)] indexes
      {!contents} and is valid only until the next {!refill} or
      {!reset} (either may move the buffer).  The reactor feeds spans
      to [Service.Batch.push_sub], which copies anything it keeps. *)

  val contents : t -> Bytes.t
  (** The live internal buffer [`Span] offsets index.  Read-only, and
      only meaningful between a [next_span] and the refill after it. *)

  val next_line : t -> block:bool -> result
  (** [next] plus refills — the stdio serve loop's read function.  With
      [~block:false], availability is checked with a 0-timeout select
      and [Pending] means "nothing ready"; with [~block:true] the
      underlying read may block and the result is never [Pending] on a
      blocking fd. *)
end

val nursery_words : int
(** 32768 words (256 KiB): the minor heap [histotestd] serves with, in
    stdio and socket mode alike.  Once a config is set, the serve path
    allocates only short-lived transport words — about 44 per reactor
    [select] round, 6 per {!Reader.next_span} line, and a string per
    stdio line (about 30 words for a 16-value [observe]) — and almost
    none of them survive a minor collection, so the
    runtime's default 256k-word (2 MiB) nursery is resident memory the
    daemon fills once and never needs.  The daemon only ever shrinks its
    minor heap to this size (an [OCAMLRUNPARAM=s=] below it wins), the
    mirror of [Parkit.Pool]'s enlarge-only policy for trial domains;
    the library itself never changes a GC setting. *)

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
[@@histolint.keep "[serve_net] runs it; test_netio pins it directly"]
(** [batch] sizes each connection's {!Service.Batch} executor
    (default 64 here — the daemon's default).  [max_conns] (default 64)
    stops accepting — the kernel backlog queues the excess — until a
    connection closes.
    [max_line_bytes] (default 1 MiB) bounds request lines: an over-long
    line gets one wire error response and the connection is closed.
    [max_pending_bytes] (default 8 MiB) is the backpressure threshold on
    a connection's outbound queue.  SIGPIPE is set to ignore (a dying
    client must surface as EPIPE, not kill the daemon).
    @raise Invalid_argument on non-positive parameters. *)

val add_connection : t -> Unix.file_descr -> unit
[@@histolint.keep "[serve_net] runs it; test_netio pins it directly"]
(** Adopt an already-connected stream socket (the accept path uses this;
    tests hand in socketpair ends).  The fd is set non-blocking and
    counts toward [accepted]/[max_conns]. *)

val step : t -> timeout:float -> unit
[@@histolint.keep "[serve_net] runs it; test_netio pins it directly"]
(** One reactor round: select on (listeners + readable-interest
    connections, connections with pending output) with [timeout]
    seconds, then write, accept, read, execute and flush.  Returns after
    at most one select — tests drive the reactor deterministically by
    interleaving [step] with client I/O. *)

val active : t -> int
[@@histolint.keep "reactor state test_netio asserts admission with"]
val accepted : t -> int
[@@histolint.keep "reactor state test_netio asserts admission with"]
val stats : t -> stats
[@@histolint.keep "[serve_net] returns it; test_netio reads it mid-run"]

val serve_net :
  ?batch:int ->
  ?max_conns:int ->
  ?max_line_bytes:int ->
  ?max_pending_bytes:int ->
  ?accept_limit:int ->
  ?poll_interval:float ->
  Service.t ->
  listeners:Unix.file_descr list ->
  unit ->
  stats
(** The event loop: {!create_reactor} plus [step] (each waiting at most
    [poll_interval] seconds, default 0.5) until done.  Runs forever by
    default; with [accept_limit] it returns once that many connections
    have been admitted {e and} all of them have closed (benches know
    their client count). *)

val overlong_error : int -> string
(** The rendered wire error sent before closing an over-long-line
    connection — exposed so the stdio path and tests emit/expect the
    same bytes. *)

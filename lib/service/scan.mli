(** Zero-allocation fast path for the hot wire shapes.

    A cursor-based scanner that recognizes canonical
    [{"cmd":"observe","shard":S,"xs":[...]}] and
    [{"cmd":"counts","shard":S,"counts":[...]}] lines and decodes the
    integer payload straight into a reusable workspace buffer — no
    [Jsonl.t] tree, no per-element boxing.  The scanner claims a strict
    *subset* of what {!Jsonl.parse} + {!Wire.request_of_line} accept, and
    decodes identically on that subset, so falling back to the strict
    parser on [None] keeps every response and error message byte-exact. *)

type kind = Observe | Counts

type t
(** Workspace: one growable int arena reused across a whole batch, the
    last hit, and the interned shard ids. *)

val max_shard_bytes : int
(** The longest shard id, 256 bytes.  The scanner declines longer ids
    (the strict parser then sees them), which bounds what the intern
    table holds; the service refuses them on either path. *)

val create : unit -> t

val clear : t -> unit
(** Reset the arena write position (call once per batch; spans from the
    previous batch become invalid). *)

val length : t -> int
(** Number of ints currently staged in the arena (this batch's total
    decoded payload size — the serve loop caps batch fill on it so the
    scan-then-ingest working set stays cache-resident). *)

val buffer : t -> int array
(** The live arena.  Valid to read at a hit's
    [hit_off .. hit_off + hit_len - 1] only until the next {!clear};
    growth may replace the array, so re-read after the batch is fully
    scanned, not across [scan_sub] calls. *)

val scan_sub : t -> string -> pos:int -> len:int -> bool
(** Try the fast path on the request line in the window
    [\[pos, pos + len)] of the string, without materializing it — the
    socket reactor feeds line spans straight out of its read buffer.
    [true] appends the decoded payload to the arena and sets the hit
    fields below; [false] leaves the arena untouched — hand the line to
    the strict parser.  The window must be in bounds (unchecked, like
    [String.unsafe_get]).  Allocates nothing unless the line's shard id
    is not yet interned. *)

val hit_kind : t -> kind
val hit_shard : t -> string
val hit_off : t -> int
val hit_len : t -> int
(** The last hit, valid after [scan_sub] returns [true] until the next
    [scan_sub]: its kind, its shard id (an interned string shared by
    every hit with the same bytes, never a reference into the line), and
    its payload's start and length in {!buffer}. *)

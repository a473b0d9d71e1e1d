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

type hit = {
  kind : kind;
  shard : string;
  off : int;  (** payload start in {!buffer} *)
  len : int;  (** payload length *)
}

type t
(** Workspace: one growable int arena, reused across a whole batch. *)

val create : unit -> t

val clear : t -> unit
(** Reset the arena write position (call once per batch; spans from the
    previous batch become invalid). *)

val length : t -> int
(** Number of ints currently staged in the arena (this batch's total
    decoded payload size — the serve loop caps batch fill on it so the
    scan-then-ingest working set stays cache-resident). *)

val buffer : t -> int array
(** The live arena.  Valid to read at a [hit]'s [off..off+len-1] only
    until the next {!clear}; growth may replace the array, so re-read
    after the batch is fully scanned, not across [scan] calls. *)

val scan : t -> string -> hit option
[@@histolint.keep "[Batch] runs it; test_service fuzzes it vs the parser"]
(** Try the fast path on one request line.  [Some hit] appends the
    decoded payload to the arena; [None] leaves the arena untouched —
    hand the line to the strict parser. *)

val scan_sub : t -> string -> pos:int -> len:int -> hit option
(** [scan] on the window [\[pos, pos + len)] of the string, decoding
    exactly as [scan] would on the corresponding substring but without
    materializing it — the socket reactor feeds line spans straight out
    of its read buffer.  The window must be in bounds (unchecked, like
    [String.unsafe_get]). *)

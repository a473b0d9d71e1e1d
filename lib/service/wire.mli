(** The [histotestd] wire protocol: batched, line-oriented JSON.  Each
    request is one JSON object on one line; each response one JSON object
    on one line, with an ["ok"] boolean first.

    Requests:
    - [{"cmd":"config","n":N,"family":SPEC,"eps":E,"cells":C?,"seed":S?}] —
      set the hypothesis; resets all shards.
    - [{"cmd":"observe","shard":ID,"xs":[x,...]}] — batch-ingest raw
      observations into a shard (created on first use).
    - [{"cmd":"counts","shard":ID,"counts":[c_0,...,c_{n-1}]}] — bulk-add
      a full count vector (another process's tallies).
    - [{"cmd":"verdict"}] — the incremental accept/reject verdict,
      computed from the one accumulator every shard adds into (there is
      no merge step).
    - [{"cmd":"cache_stats"}] — structure-cache introspection (size,
      hits, misses, evictions).
    - [{"cmd":"stats"}], [{"cmd":"reset"}], [{"cmd":"quit"}]. *)

type request =
  | Config of {
      n : int;
      family : string;
      eps : float;
      cells : int option;
          (** diagnostic partition cells; default [min n 64], clamped to
              [1..n] *)
      seed : int;
    }
  | Observe of { shard : string; xs : int array }
  | Counts of { shard : string; counts : int array }
  | Verdict
  | Stats
  | Cache_stats
  | Reset
  | Quit

val request_of_line : string -> (request, string) result

val ok : (string * Jsonl.t) list -> Jsonl.t
(** [{"ok":true, ...fields}]. *)

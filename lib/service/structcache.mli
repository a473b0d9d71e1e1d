(** Bounded, deterministically evicted cache of built hypothesis
    structures, keyed by the canonical config fingerprint
    (n, family spec, seed, cells).

    Families are deterministic functions of the fingerprint (the builder
    seeds its own RNG), and both cached structures are immutable, so the
    cache never changes a response — it only removes the structure
    rebuild (O(n) time) from repeated [config] requests.  Eviction is
    LRU over an assoc list (MRU first): deterministic given the request
    sequence. *)

type entry = { dstar : Families.hypothesis; part : Partition.t }
(** [dstar] and [part] share one domain. *)

type t

val create : unit -> t
(** At most 16 entries whose costs sum to at most 2^23, twice the
    service's largest domain.  An entry costs what it holds: its domain
    size n for a [Dense] pmf (n also bounds the partition's cells), its
    piece count plus its partition's cell count for [Pieces] — so 16
    piecewise hypotheses over a few cells stay cached at any domain size,
    while piecewise entries with n cells are bounded as dense ones are. *)

val fingerprint : n:int -> family:string -> seed:int -> cells:int -> string
(** The canonical cache key. *)

val find_or_build :
  t -> key:string -> (unit -> (entry, string) result) -> (entry, string) result
(** Return the cached entry (a hit refreshes its recency) or run the
    builder and remember a successful result, evicting least recently
    used entries until both bounds hold again (the new entry always
    stays).  Errors are never cached. *)

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : t -> stats
(** Introspection for the [cache_stats] wire request and bench
    provenance. *)

(** Bounded, deterministically evicted cache of built hypothesis
    structures, keyed by the canonical config fingerprint
    (n, family spec, seed, cells).

    Families are deterministic functions of the fingerprint (the builder
    seeds its own RNG), and both cached structures are immutable, so the
    cache never changes a response — it only removes the O(n) structure
    rebuild from repeated [config] requests.  Eviction is LRU over an
    assoc list (MRU first): deterministic given the request sequence. *)

type entry = { dstar : Pmf.t; part : Partition.t }

type t

val create : ?capacity:int -> unit -> t
(** At most [capacity] entries (default 16) whose domain sizes sum to at
    most 2^23, twice the service's largest domain: each entry holds O(n)
    words.
    @raise Invalid_argument if [capacity < 1]. *)

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

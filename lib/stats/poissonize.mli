(** Sample oracles over an unknown distribution, in both the exact-m and the
    Poissonized access models.

    The Poissonized oracle draws m' ~ Poisson(mean) and then m' iid samples,
    which makes the per-element occurrence counts N_i independent
    Poisson(mean·D(i)) variables (Section 2 of the paper) — the property
    Proposition 3.3's variance bounds require.  Testers receive an [oracle],
    never the pmf, so sample accounting is honest by construction. *)

type oracle = {
  n : int;  (** domain size *)
  exact : int -> int array;  (** [exact m]: counts of exactly m samples *)
  poissonized : float -> int array;
      (** [poissonized mean]: counts of Poisson(mean) samples *)
  stream : int -> int array;  (** [stream m]: the m samples themselves *)
}

val of_pmf : Randkit.Rng.t -> Pmf.t -> oracle
(** Builds a fresh O(n) alias table; prefer [of_alias] when many oracles
    are made over the same PMF (one per trial in the harness). *)

val of_alias : Randkit.Rng.t -> Alias.t -> oracle
(** An oracle over a pre-built alias table.  The table is immutable and
    may be shared by any number of oracles across trials and domains;
    only [rng] is mutated by draws, so each concurrent oracle needs its
    own generator.  Every call allocates a fresh result array that the
    caller may keep forever. *)

val of_alias_ws : Workspace.t -> Randkit.Rng.t -> Alias.t -> oracle
(** Like [of_alias], with the **exact same draw stream** for the same
    generator, but allocation-free in the steady state: returned arrays
    are views into [ws]'s reusable buffers, valid only until the oracle's
    next call — [Array.copy] to retain.  Consequences: (1) the workspace
    must not be shared with concurrently running code (the harness keeps
    one per domain); (2) two oracles over the same workspace must not be
    used side by side (e.g. [Closeness.run] needs its two oracles'
    counts simultaneously — give them distinct workspaces or use
    [of_alias]). *)

val counts_of_tree : Randkit.Rng.t -> Split_tree.t -> oracle
(** The counts path: occurrence vectors generated directly by recursive
    binomial splitting over a shared {!Split_tree} — O(s·log(n/s)) per
    call for [s] occupied elements, independent of the sample budget,
    against the alias path's Θ(m).  Same sharing contract as [of_alias]
    (immutable tree, one generator per concurrent oracle) and the same
    multinomial/Poissonized law, but NOT the same draw stream: agreement
    with the stream path is pinned distributionally (per-cell count
    marginals, verdict distributions over trial ensembles), never
    bit-exactly.  [stream] remains lawful — the counts are expanded and
    uniformly shuffled, which is exactly the conditional law of an iid
    sample sequence given its counts — but costs Θ(n + m); testers on
    this path are expected to touch only [exact]/[poissonized]. *)

val counts_of_tree_ws : Workspace.t -> Randkit.Rng.t -> Split_tree.t -> oracle
(** Like [counts_of_tree] with the exact same draw stream for the same
    generator, but allocation-free in the steady state: returned arrays
    are views into [ws]'s buffers, overwritten by the oracle's next call
    — the same lending contract (and the same caveats) as
    [of_alias_ws]. *)

val of_pmf_seeded : seed:int -> Pmf.t -> oracle

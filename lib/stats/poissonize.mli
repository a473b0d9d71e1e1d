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

val counts_of_tree : Randkit.Rng.t -> Split_tree.t -> oracle
(** Occurrence vectors generated directly by recursive binomial
    splitting over a shared {!Split_tree} — O(s·log(n/s)) per call for
    [s] occupied elements, independent of the sample budget.  The tree is
    immutable: build it once per PMF and hand each consumer
    [counts_of_tree (Randkit.Rng.split rng) tree] (draws mutate only the
    generator).  Every call allocates a fresh result array.  The
    test-only alias stream ([Refkit.Stream_trials.of_alias], Θ(m) per
    call) samples the same law with a different draw stream, so the two
    are compared distributionally, never bit-exactly.  [stream m] expands
    and shuffles the counts of [exact m] drawn from the same generator
    state (the conditional law of an iid sequence given its counts), at
    Θ(n + m); testers touch only [exact]/[poissonized]. *)

val counts_of_tree_ws : Workspace.t -> Randkit.Rng.t -> Split_tree.t -> oracle
(** Like [counts_of_tree], with the **exact same draw stream** for the
    same generator, but allocation-free in the steady state: returned
    arrays are views into [ws]'s reusable buffers, valid only until the
    oracle's next call — [Array.copy] to retain.  Consequences: (1) the
    workspace must not be shared with concurrently running code (the
    harness keeps one per domain); (2) two oracles over the same
    workspace must not be used side by side (e.g. [Closeness.run] needs
    its two oracles' counts simultaneously — give them distinct
    workspaces or use an allocating oracle).  This is the oracle every
    {!Harness} trial gets. *)

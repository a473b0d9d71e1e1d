(** The merge monoid: the contract every shardable state in this
    repository implements so that testing becomes *aggregation* of
    per-shard sufficient statistics rather than sample custody.

    [merge a b] combines the states of two disjoint sub-streams into the
    state of their concatenation.  Implementations come in two strengths,
    and each module documents which it provides:

    - {b exact}: observable behaviour of the merged state is identical to
      having fed one shard the concatenated stream ([Suffstat] counts —
      integer adds commute and associate exactly);
    - {b distributional / ε-bounded}: the merged state obeys the same
      approximation guarantee as a single-stream state over the union
      ([Gk] rank queries stay within ε·n).

    Identities are parameterized (an empty [Gk] summary carries an [eps],
    an empty [Suffstat] a partition), so each implementation exposes its
    own identity constructor rather than this signature forcing a
    nullary [empty]. *)

module type S = sig
  type t

  val merge : t -> t -> t
  (** Associative (exactly, or up to the implementation's documented
      approximation guarantee), with the implementation's empty state as
      identity.  @raise Invalid_argument on incompatible states (different
      domain, shape, precision or seed). *)
end

module Fold (M : S) : sig
  val reduce : M.t array -> M.t
  (** Left fold [merge (... (merge s0 s1) ...) s_last] — the service
      layer's canonical topology: deterministic given shard order.
      @raise Invalid_argument on the empty array. *)

  val reduce_with : identity:M.t -> M.t array -> M.t
  (** Left fold seeded with an explicit identity; total. *)

  val tree_reduce : M.t array -> M.t
  (** Balanced binary merge tree — same result as [reduce] for exact
      monoids; for float-accumulating diagnostics the grouping differs, so
      E20 gates verdict equality across both topologies.
      @raise Invalid_argument on the empty array. *)
end

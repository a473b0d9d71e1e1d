(** The CDGR16-style baseline (O(√(kn)/ε³·log n) samples): learn a
    candidate k-histogram agnostically in total variation, then verify it
    with an ℓ2-style identity test.

    No reference implementation of [CDGR16] exists; this is a faithful
    reimplementation of their stated approach (testing-by-learning with a
    TV-learner, which — as the paper under reproduction explains in §1.3 —
    cannot use the χ²-accept guarantee and therefore pays the √(kn)
    verification price).  Its sample budget and empirical error rates are
    what experiment E3 compares Algorithm 1 against. *)

val budget : ?config:Config.t -> n:int -> k:int -> eps:float -> unit -> int
(** The √(kn)/ε³·log n planned budget (for the comparison table). *)

val learn_budget : k:int -> eps:float -> int

val test : ?config:Config.t -> Poissonize.oracle -> k:int -> eps:float -> Verdict.t

(** Instance generators for both halves of Theorem 1.2, used by experiments
    E4 and E5 to exhibit the information-theoretic barriers empirically.

    Proposition 4.1 (Ω(√n/ε²)): the Paninski family Q_ε of paired-bin
    perturbations — ε-far from H_k for every k < n/3, yet indistinguishable
    from uniform below the sample bound.

    Proposition 4.2 (Ω(k/(ε·log k))): the reduction from support-size
    estimation — embed a promise-problem instance into [n] and permute
    uniformly; a support of size s becomes a (2s+1)-histogram, while a
    large support stays "sprinkled" (Lemma 4.4: cover ≥ 6ℓ/7 whp) and is
    then 1/24-far from H_k. *)

val paninski_instance :
  n:int -> eps:float -> ?c:float -> rng:Randkit.Rng.t -> unit -> Pmf.t

type supp_side = Small | Large

val supp_size_m : k:int -> int
(** The m paired with a given k, chosen as ⌊3(k−3)/4⌋ so that the
    small-support side (support ≤ 2m/3+1, hence ≤ 2(2m/3+1)+1 ≤ k pieces)
    is a k-histogram under {i every} permutation.  The paper's stated
    m = ⌈3(k−1)/2⌉ does not satisfy this — see the DESIGN.md note on
    §4.2's constants. *)

val supp_size_instance :
  side:supp_side -> m:int -> n:int -> rng:Randkit.Rng.t -> Pmf.t * int
(** A permuted embedded SuppSize instance and its support size.
    [Small] ⇒ support ≤ 2m/3+1 (always a k-histogram for the matched k);
    [Large] ⇒ support ≥ 7m/8 (far from H_k whp over the permutation). *)

val supp_size_pair :
  k:int -> n:int -> rng:Randkit.Rng.t -> (Pmf.t * int) * (Pmf.t * int) * int
(** Both sides plus m, with independent permutations. *)

val eps_embedded : Pmf.t -> eps:float -> eps1:float -> Pmf.t
[@@histolint.keep "tested only by test_histotest; no production caller"]
(** The ε-dilution trick closing §4.2 (adds one heavy element of mass
    1 − ε/ε₁; the domain grows by one). *)

val distance_eps1 : float
(** The constant distance 1/24 the reduction guarantees. *)

val cover_of_support : Pmf.t -> int
(** Lemma 4.4's cover statistic of the support. *)

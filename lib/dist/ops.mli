(** Distribution transformers: the plumbing of the lower-bound reductions
    and of the learning lemma. *)

val permute : Pmf.t -> int array -> Pmf.t
(** [permute d σ] is D∘σ⁻¹ — the mass of element i moves to σ(i).  With a
    uniform σ this is the randomized relabeling of the support-size
    reduction (§4.2). *)

val embed : Pmf.t -> n:int -> Pmf.t
(** View a distribution on [m] as one on [n ≥ m], zero elsewhere. *)

val flatten : Pmf.t -> Partition.t -> Pmf.t
(** Replace D by its conditional-uniform version per cell: D(I)/|I| on each
    I.  A member of H_K by construction. *)

val flatten_outside : Pmf.t -> Partition.t -> keep_cells:bool array -> Pmf.t
[@@histolint.keep "reproduction artifact: Lemma 3.5's D̃^J; test_distrib checks it"]
(** The D̃^J of Lemma 3.5: identical to D on the marked cells, flattened on
    the rest. *)

val pad_with_heavy_point : Pmf.t -> weight:float -> Pmf.t
(** Scale to mass 1−w and append one element of mass w — the ε-embedding
    trick closing the proof of Proposition 4.2. *)

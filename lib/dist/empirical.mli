(** Empirical estimation from samples: plain plug-in estimators plus the
    add-one (Laplace) piecewise-constant estimator that realizes the χ²
    learner of Lemma 3.5. *)

val of_counts : int array -> Pmf.t
(** Plug-in (maximum-likelihood) distribution N_i / m.
    @raise Invalid_argument when all counts are zero. *)

val cell_counts : Partition.t -> int array -> int array
(** Aggregate per-element counts into per-cell counts m_I. *)

val cell_counts_into : Partition.t -> int array -> out:int array -> unit
(** {!cell_counts} written into the first K entries of [out] (length at
    least K), allocating nothing. *)

val add_one_levels :
  Partition.t -> counts:int array -> total:int -> levels:float array -> unit
(** The Lemma 3.5 estimator as its ℓ cell levels, written into the first
    ℓ entries of [levels]: from per-cell counts of [total] samples,
    D̂(j) = (m_I + 1)/(total + ℓ)·1/|I| for j ∈ I.  Always strictly
    positive — the property that makes the χ² divergence against it
    finite.  [counts] and [levels] may be longer than ℓ (workspace
    buffers); nothing is allocated.  @raise Invalid_argument unless
    Σ level·|I| is 1 within 1e-9, {!Pmf.create}'s tolerance. *)

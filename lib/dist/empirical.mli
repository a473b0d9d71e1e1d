(** Empirical estimation from samples: plain plug-in estimators plus the
    add-one (Laplace) piecewise-constant estimator that realizes the χ²
    learner of Lemma 3.5. *)

val counts_of_samples : n:int -> int array -> int array
[@@histolint.keep "tested only by test_distrib; no production caller"]
(** Occurrence counts N_i. @raise Invalid_argument on out-of-domain values. *)

val of_counts : int array -> Pmf.t
(** Plug-in (maximum-likelihood) distribution N_i / m.
    @raise Invalid_argument when all counts are zero. *)

val cell_counts : Partition.t -> int array -> int array
(** Aggregate per-element counts into per-cell counts m_I. *)

val add_one_histogram : Partition.t -> counts:int array -> total:int -> Pmf.t
(** The Lemma 3.5 estimator: on a partition into ℓ cells, from per-cell
    counts of [total] samples, D̂(j) = (m_I + 1)/(total + ℓ)·1/|I| for j∈I.
    Always strictly positive everywhere — the property that makes the χ²
    divergence against it finite. *)

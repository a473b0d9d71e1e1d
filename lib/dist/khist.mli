(** Succinct piecewise-constant representations: the class H_k of the paper.

    A [Khist.t] is a partition of [0..n-1] into contiguous cells plus one
    per-element level per cell; it represents a function (usually a pmf,
    but the type also carries sub-normalized learner outputs, which
    {!to_pmf} refuses). *)

type t

val make : Partition.t -> float array -> t
(** One finite nonnegative level per cell; levels are per-element
    probabilities, so the represented mass is Σ level·|cell|. *)

val partition : t -> Partition.t
val levels : t -> float array
val pieces : t -> int
val level : t -> int -> float

val unsafe_levels : t -> float array
(** The levels themselves, NOT copied — read-only by convention, like
    {!Pmf.unsafe_array}: the statistic's loops read a level per run of
    elements without a copy or a boxed float per read. *)

val to_pmf : t -> Pmf.t
(** The expansion, {!Pmf.of_pieces}: one n-float array filled a cell at
    a time.  @raise Invalid_argument if the represented mass is not 1. *)

val breakpoints_of_pmf : Pmf.t -> int list
[@@histolint.keep "[of_pmf] runs it; test_histkit pins it directly"]
(** Positions i ≥ 1 with D(i) ≠ D(i−1), ascending — the paper's
    breakpoints. *)

val pieces_of_pmf : Pmf.t -> int

val of_pmf : Pmf.t -> t
(** Exact piecewise-constant decomposition into maximal constant runs. *)

val breakpoint_cells : Pmf.t -> Partition.t -> bool array
(** Which cells of a partition contain a breakpoint of the pmf strictly
    inside them — the set J of Lemma 3.5 (≤ k−1 cells when D ∈ H_k). *)

val flatten_pmf : Pmf.t -> Partition.t -> t
(** The histogram whose cell levels are the conditional-uniform masses
    D(I)/|I|. *)

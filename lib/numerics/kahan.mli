(** Compensated (Kahan–Neumaier) floating-point summation.

    Probability computations in this library accumulate up to millions of
    terms of widely varying magnitude (e.g. the χ² statistic over a domain of
    size [n]); naive summation loses enough precision to flip tester
    verdicts near thresholds, so every such sum goes through this module. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** A fresh accumulator holding 0. *)

val add : t -> float -> unit
(** [add t x] accumulates [x] with Neumaier compensation. *)

val total : t -> float
(** Current compensated total. *)

val merge : t -> t -> t
[@@histolint.keep "tested only by test_service; no production caller"]
(** A fresh accumulator combining two shards' partial sums ({!Mergeable}
    contract).  The principal sums are combined by an error-free two-sum
    (their exact sum lands in [sum] + [comp]), so merging introduces no
    rounding beyond what each shard's own additions committed; the result
    still depends on how terms were grouped into shards, exactly as float
    addition does.  Neither input is mutated. *)

val sum_array : float array -> float
(** Compensated sum of an array. *)

val sum_seq : float Seq.t -> float
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** Compensated sum of a sequence. *)

val sum_f : int -> (int -> float) -> float
(** [sum_f n f] is the compensated sum of [f 0 .. f (n-1)]. *)

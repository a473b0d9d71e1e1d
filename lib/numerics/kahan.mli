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

val add_run : t -> float -> int -> unit
(** [add_run t x count] is [count] successive [add t x] calls, bit for
    bit, in O(1) space and O(binades crossed) time, about log₂ [count]
    for a sum that does not cancel: the total of a piecewise-constant
    sequence taken a run at a time, without expanding it.  Steps that
    stay inside one binade of the sum are taken a binade at a time;
    zero, subnormal and non-finite sums, sign changes and binade
    crossings take ordinary steps.  Allocates nothing.  [count <= 0]
    adds nothing. *)

val of_parts : sum:float -> comp:float -> t
[@@histolint.keep "test_numkit starts add_run from any state"]
(** An accumulator whose running sum and compensation are [sum] and
    [comp] ({!total} is [sum +. comp]). *)

val parts : t -> float * float
[@@histolint.keep "test_numkit reads add_run's state bit for bit"]
(** The running sum and the compensation, as {!of_parts} takes them. *)

val sum_array : float array -> float
(** Compensated sum of an array.  Allocates nothing, and is bitwise the
    [add] fold over the array. *)

val sum_sub : float array -> pos:int -> len:int -> float
(** [sum_sub a ~pos ~len] is [sum_array] of [a.(pos) .. a.(pos+len-1)],
    without copying the range.
    @raise Invalid_argument if the range lies outside [a]. *)

val sum_f : int -> (int -> float) -> float
(** [sum_f n f] is the compensated sum of [f 0 .. f (n-1)].  Each
    result of [f] is a boxed float; a sum over an array range is
    {!sum_sub}. *)

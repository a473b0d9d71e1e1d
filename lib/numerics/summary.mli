(** Streaming and batch summary statistics (Welford mean/variance,
    quantiles, medians) used by the experiment harness to aggregate
    repeated tester trials. *)

type t
(** Streaming accumulator. *)

val create : unit -> t
val add : t -> float -> unit

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
[@@histolint.keep "[stddev] roots it; the moment tests read it directly"]
(** Unbiased sample variance; [nan] when fewer than two observations. *)

val stddev : t -> float
val of_array : float array -> t
val mean_of : float array -> float

val quantile : float array -> float -> float
(** Type-7 (linear interpolation) sample quantile.
    @raise Invalid_argument on empty input or q outside [0, 1]. *)

val median : float array -> float

val median_int : int array -> int
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** Upper median of an int array (no interpolation); the median-trick
    amplifier uses this. *)

val prefix_sums : float array -> float array
(** [prefix_sums a].(i) = compensated sum of [a.(0) .. a.(i-1)];
    length is [Array.length a + 1]. *)

val argmax : float array -> int
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** Index of the (first) maximum. @raise Invalid_argument on empty input. *)

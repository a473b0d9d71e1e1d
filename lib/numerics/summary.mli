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

val column_medians :
  float array array -> rows:int -> cols:int -> out:float array -> unit
(** [column_medians a ~rows ~cols ~out] sets [out.(j)] to the median
    of [a.(0).(j) .. a.(rows-1).(j)] for every [j < cols], sorting each
    column in place down the rows, allocating nothing.  The value is
    [quantile _ 0.5]'s, bit for bit, except for the sign of a zero
    median when both zeros are in the column (Float.compare ties them,
    and the two sorts may order them differently).  @raise Invalid_argument when
    [rows < 1] or a buffer is too short. *)

val prefix_sums : float array -> float array
(** [prefix_sums a].(i) = compensated sum of [a.(0) .. a.(i-1)];
    length is [Array.length a + 1]. *)

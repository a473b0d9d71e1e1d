(** Monotone searches: binary search over predicates and sorted arrays,
    doubling search, float bisection.

    The model-selection procedure of the paper's introduction (find the
    smallest [k] accepted by the tester) and the empirical sample-complexity
    experiments (find the smallest sample size reaching 2/3 success) are both
    instances of [doubling_first_true]. *)

val first_true : lo:int -> hi:int -> (int -> bool) -> int option
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** [first_true ~lo ~hi pred] is the smallest [x] in [lo, hi] with
    [pred x = true], assuming [pred] is monotone (false then true).
    [None] if [pred hi] is false. @raise Invalid_argument if [lo > hi]. *)

val doubling_first_true : start:int -> limit:int -> (int -> bool) -> int option
(** Doubling search from [start] (capped at [limit]) followed by bisection;
    returns the smallest true point or [None] if even [limit] fails.
    @raise Invalid_argument if [start <= 0]. *)

val bisect_float : lo:float -> hi:float -> eps:float -> (float -> float) -> float
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** Root of a continuous function by bisection, given a sign change on
    [lo, hi]; stops when the bracket is narrower than [eps]. *)

val lower_bound : float array -> float -> int
(** First index whose value is [>= x] in a sorted array, or the length. *)

val upper_bound : float array -> float -> int
(** First index whose value is [> x] in a sorted array, or the length. *)

val lower_bound_int : int array -> int -> int
[@@histolint.keep "tested only by test_numkit; no production caller"]
(** {!lower_bound} over a sorted [int array]. *)

val upper_bound_int : int array -> int -> int
(** {!upper_bound} over a sorted [int array]: first index whose value is
    [> x], or the length.  [upper_bound_int a x - 1] is the last index
    with value [<= x] (−1 when all exceed [x]) — the predecessor lookup
    the closest-[H_k] witness uses to map positions to DP pieces. *)

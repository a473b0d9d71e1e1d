(** Monotone searches: doubling search over a monotone predicate, binary
    search over sorted arrays.

    The model-selection procedure of the paper's introduction (find the
    smallest [k] accepted by the tester) is an instance of
    [doubling_first_true]. *)

val doubling_first_true : start:int -> limit:int -> (int -> bool) -> int option
(** Doubling search from [start] (capped at [limit]) followed by bisection;
    returns the smallest true point or [None] if even [limit] fails.
    @raise Invalid_argument if [start <= 0]. *)

val lower_bound : float array -> float -> int
(** First index whose value is [>= x] in a sorted array, or the length. *)

val upper_bound_int : int array -> int -> int
(** First index whose value is [> x] in a sorted [int array], or the
    length.  [upper_bound_int a x - 1] is the last index with value
    [<= x] (−1 when all exceed [x]) — the predecessor lookup the
    closest-[H_k] witness uses to map positions to DP pieces. *)

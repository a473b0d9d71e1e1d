(** Half-open integer intervals [lo, hi) over the 0-indexed domain
    [0..n-1].  The paper's intervals are contiguous blocks of the ordered
    universe [n]; every partition, histogram piece and sieve decision in
    this library is phrased in terms of these. *)

type t

val make : lo:int -> hi:int -> t
(** @raise Invalid_argument if [lo > hi]; [lo = hi] is the empty interval. *)

val lo : t -> int
val hi : t -> int
val length : t -> int
val is_empty : t -> bool
val mem : t -> int -> bool
[@@histolint.keep "tested only by test_intervals; no production caller"]
val is_singleton : t -> bool

val equal : t -> t -> bool
[@@histolint.keep "tested only by test_intervals; no production caller"]

val contains : outer:t -> inner:t -> bool
[@@histolint.keep "tested only by test_intervals; no production caller"]
val intersect : t -> t -> t option
val disjoint : t -> t -> bool
[@@histolint.keep "tested only by test_intervals; no production caller"]
val adjacent : t -> t -> bool
[@@histolint.keep "tested only by test_intervals; no production caller"]

val union_adjacent : t -> t -> t
[@@histolint.keep "tested only by test_intervals; no production caller"]
(** @raise Invalid_argument unless the two intervals share an endpoint. *)

val split_at : t -> int -> t * t
[@@histolint.keep "tested only by test_intervals; no production caller"]
(** [split_at t i] = ([lo, i), [i, hi)).
    @raise Invalid_argument unless [i] is strictly interior. *)

val to_list : t -> int list
[@@histolint.keep "tested only by test_intervals; no production caller"]
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
[@@histolint.keep "tested only by test_intervals; no production caller"]
val iter : (int -> unit) -> t -> unit

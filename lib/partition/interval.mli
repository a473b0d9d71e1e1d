(** Half-open integer intervals [lo, hi) over the 0-indexed domain
    [0..n-1].  The paper's intervals are contiguous blocks of the ordered
    universe [n]; every partition, histogram piece and sieve decision in
    this library is phrased in terms of these.

    An interval is an immediate (one int, no block), so building,
    storing and reading one allocates nothing, and an array of them is
    one int array.  Both bounds lie in [0, 2^31): domains up to
    2^31 − 1 points.  Polymorphic [compare] orders intervals
    lexicographically on (lo, hi), and [=] holds exactly when both
    bounds are equal. *)

type t [@@immediate]

val make : lo:int -> hi:int -> t
(** [lo = hi] is the empty interval.
    @raise Invalid_argument unless [0 <= lo <= hi < 2^31]. *)

val lo : t -> int
val hi : t -> int
val length : t -> int
val is_singleton : t -> bool
val intersect : t -> t -> t option
val iter : (int -> unit) -> t -> unit

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
val is_singleton : t -> bool
val intersect : t -> t -> t option
val iter : (int -> unit) -> t -> unit

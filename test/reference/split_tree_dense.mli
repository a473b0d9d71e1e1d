(** The split tree with one split probability per internal node: a table
    of 2^⌈log₂ n⌉ floats indexed by heap position, filled in three O(n)
    passes (subtree masses bottom-up, then each mass replaced by its
    node's split share top-down).  This is the layout {!Split_tree}
    replaced with one that stores only the splits that are not ½; the
    two must draw the same count vectors from the same generator, bit
    for bit (QCheck-pinned in the test suite).  Cross-checking only. *)

type t

val of_pmf : Pmf.t -> t

val draw_counts_into : t -> Randkit.Rng.t -> counts:int array -> int -> unit
(** Zeroes [counts] and fills it with a multinomial([m], pmf) draw.
    @raise Invalid_argument if [m < 0] or [Array.length counts] is not
    the pmf's size. *)

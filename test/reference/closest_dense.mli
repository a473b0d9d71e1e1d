(** The classic Θ(K²k) closest-H_k segmentation DP over a dense K×K cost
    matrix: the reference {!Closest.fit_cells} is pinned against.  It
    fills the matrix from the same segment-cost oracle and breaks ties
    leftmost, so on every input it returns the same cost and the same
    piece starts, float for float (QCheck-pinned in the test suite, and
    asserted per row by the E18 bench).  Quadratic memory: cross-checking
    and ablation only. *)

val fit_cells : Closest.cell array -> k:int -> float * int list
(** @raise Invalid_argument on no cells or [k <= 0]. *)

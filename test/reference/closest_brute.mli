(** Exhaustive closest-H_k search: every placement of up to k-1
    breakpoints, each piece's cost from a fresh {!Numkit.Wmedian}.  It
    shares no oracle with {!Closest} (unlike {!Closest_dense}), so the
    DP agrees with it to rounding, not bit for bit.  Exponential:
    cross-checking on tiny domains only. *)

val l1 : ?mask:bool array -> Pmf.t -> k:int -> float
(** min over ≤k-piece functions h of Σ_{i kept} |D(i) − h(i)|, as
    [Closest.l1_to_hk].  @raise Invalid_argument on a domain above 16. *)

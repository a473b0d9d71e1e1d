(** Streaming weighted median with O(1) optimal-L1-cost queries.

    Feeding weighted values one at a time, [cost] returns
    min_v Σ w_i·|v_i − v| for everything added so far, the per-segment cost
    of the closest-k-histogram dynamic program under (restricted) total
    variation.  Each [add] is O(log n) amortized for well-behaved weight
    sequences.  Test-only: {!Closest_brute} prices its pieces with it,
    and the tests check {!Numkit.Rank_index} and [Closest.witness]'s
    levels against it; the DP itself runs on {!Numkit.Rank_index}. *)

type t

val create : unit -> t

val add : t -> value:float -> weight:float -> unit
(** Zero-weight adds are no-ops. @raise Invalid_argument on negative
    weight. *)

val median : t -> float
(** A weighted median of the values added so far; [nan] when empty. *)

val cost : t -> float
(** min over v of Σ w_i·|v_i − v| — attained at [median t]. *)

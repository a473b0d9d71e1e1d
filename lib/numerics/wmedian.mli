(** Streaming weighted median with O(1) optimal-L1-cost queries.

    Feeding weighted values one at a time, [cost] returns
    min_v Σ w_i·|v_i − v| for everything added so far, the per-segment cost
    of the closest-k-histogram dynamic program under (restricted) total
    variation.  Each [add] is O(log n) amortized for well-behaved weight
    sequences. *)

type t

val create : unit -> t

val add : t -> value:float -> weight:float -> unit
(** Zero-weight adds are no-ops. @raise Invalid_argument on negative
    weight. *)

val median : t -> float
[@@histolint.keep "[cost] is attained at it; test_numkit pins it and test_fuzz_closest checks Closest.witness's levels against it"]
(** A weighted median of the values added so far; [nan] when empty. *)

val cost : t -> float
(** min over v of Σ w_i·|v_i − v| — attained at [median t]. *)

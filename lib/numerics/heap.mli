(** Array-backed binary heap with float priorities.  Backs the greedy
    histogram-merging learner and the weighted-median accumulator. *)

type 'a t

val create : ?max_heap:bool -> unit -> 'a t
(** Min-heap by default; [~max_heap:true] flips the order. *)

val push : 'a t -> priority:float -> 'a -> unit

val peek : 'a t -> (float * 'a) option
(** Best (priority, payload) without removing it. *)

val pop : 'a t -> (float * 'a) option

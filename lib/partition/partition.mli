(** Ordered partitions of the domain [0..n-1] into contiguous intervals.

    These are the objects [ApproxPart] (Prop. 3.4) produces, the χ² learner
    (Lemma 3.5) learns over, and the sieving stage (§3.2.1) filters. *)

type t

val make : n:int -> Interval.t list -> t
[@@histolint.keep "tested only by test_intervals; no production caller"]
(** Validates contiguity, coverage and non-emptiness of every cell.
    @raise Invalid_argument on any violation. *)

val of_breakpoints : n:int -> int list -> t
(** Partition cut at the given interior positions (deduplicated, sorted).
    @raise Invalid_argument if a break lies outside (0, n). *)

val trivial : n:int -> t
(** The single-cell partition. *)

val singletons : n:int -> t
[@@histolint.keep "tested only by test_intervals; no production caller"]
(** Every point its own cell. *)

val equal_width : n:int -> cells:int -> t
(** [cells] near-equal-length intervals. *)

val domain_size : t -> int
val cell_count : t -> int

val cell : t -> int -> Interval.t
(** Cells are indexed left to right from 0. *)

val breakpoints : t -> int list
(** Interior cut positions, ascending. *)

val find : t -> int -> int
(** Index of the cell containing a point, O(log K).
    @raise Invalid_argument outside the domain. *)

val fold : ('a -> Interval.t -> 'a) -> 'a -> t -> 'a
[@@histolint.keep "tested only by test_intervals; no production caller"]
val iteri : (int -> Interval.t -> unit) -> t -> unit

val refine : t -> t -> t
[@@histolint.keep "tested only by test_intervals; no production caller"]
(** Common refinement (union of breakpoints). *)

val is_refinement : coarse:t -> fine:t -> bool
[@@histolint.keep "tested only by test_intervals; no production caller"]

val restrict_mask : t -> keep:bool array -> bool array
(** Point-level membership mask of the kept cells; [keep] is indexed by
    cell.  This is how the sieved domain [G] is passed to the restricted
    testers. *)

(** Ordered partitions of the domain [0..n-1] into contiguous intervals.

    These are the objects [ApproxPart] (Prop. 3.4) produces, the χ² learner
    (Lemma 3.5) learns over, and the sieving stage (§3.2.1) filters. *)

type t

val of_breakpoints : n:int -> int list -> t
(** Partition cut at the given interior positions (deduplicated, sorted).
    @raise Invalid_argument if a break lies outside (0, n). *)

val trivial : n:int -> t
(** The single-cell partition. *)

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

val iteri : (int -> Interval.t -> unit) -> t -> unit

val restrict_mask : t -> keep:bool array -> bool array
(** Point-level membership mask of the kept cells; [keep] is indexed by
    cell.  The dense form of a sieved domain [G]; Algorithm 1 itself keeps
    [G] as the cell mask. *)

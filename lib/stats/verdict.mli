(** Tester verdicts. *)

type t = Accept | Reject

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

val majority : t list -> t
[@@histolint.keep "tested only by test_statkit; no production caller"]
(** Strict-majority accept (ties reject). *)

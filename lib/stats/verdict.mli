(** Tester verdicts. *)

type t = Accept | Reject

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** Sample-budget accounting middleware: wraps a {!Poissonize.oracle} and
    meters every draw, optionally enforcing a hard cap.  The test suite uses
    it to certify that each tester's actual consumption stays within its
    planned budget. *)

type t

exception Budget_exceeded of { drawn : int; cap : int }

val wrap : ?cap:int -> Poissonize.oracle -> t
(** Meter (and with [cap], limit) an oracle. *)

val oracle : t -> Poissonize.oracle
(** The metered oracle to hand to a tester.  Poissonized draws are charged
    at their realized count — the sum of the returned vector, which on the
    counts path ([Poissonize.counts_of_tree]) equals the Poisson total
    drawn at the tree root, so sample accounting is identical in law on
    both paths even though no stream was ever materialized. *)

val drawn : t -> int
(** Samples drawn so far through {!oracle}. *)

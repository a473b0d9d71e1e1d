(** The random-generator handle threaded through every randomized component
    of this repository.  Nothing in the codebase touches OCaml's global
    [Random] state: all experiments, tests and testers are reproducible from
    an explicit seed. *)

type t

val create : seed:int -> t

val copy : t -> t
(** Snapshot; the copy and the original evolve independently. *)

val split : t -> t
(** A child generator 2^128 draws ahead — statistically independent streams
    for sub-experiments.  Advances the parent by one draw so successive
    splits differ. *)

val bits64 : t -> int64
[@@histolint.keep "the raw draw the stream-determinism tests pin"]

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound); rejection-sampled, no modulo
    bias. @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
[@@histolint.keep "tested only by test_randkit; no production caller"]
(** Uniform on the inclusive range. @raise Invalid_argument if [lo > hi]. *)

val float : t -> float -> float
(** Uniform on [0, bound) with full 53-bit resolution. *)

val unit_open : t -> float
(** Uniform on the open interval (0, 1). *)

val bool : t -> bool

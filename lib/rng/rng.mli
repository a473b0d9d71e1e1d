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

val bits53 : t -> int
(** 53 uniform bits, the mantissa behind {!float}: [float t 1.] is
    [float_of_int (bits53 t) *. 0x1p-53] bit for bit, from the same one
    generator step.  An int crosses module boundaries unboxed, so hot
    loops in other modules draw this and scale it themselves. *)

val float : t -> float -> float
(** Uniform on [0, bound) with full 53-bit resolution. *)

val bool : t -> bool

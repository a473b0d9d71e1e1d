(** Continuous domains by gridding — the paper's Section 2 remark: "our
    techniques can be easily extended to continuous ones by suitably
    gridding the range of values".

    A [spec] maps an interval [lo, hi) onto the discrete domain
    [0..cells-1]; a continuous sampler becomes a {!Poissonize.oracle} the
    testers consume unchanged, and a density becomes the reference
    {!Pmf.t} for ground-truth distances.  The discretization step trades
    resolution against the √cells budget exactly as the remark notes. *)

type spec

val make : lo:float -> hi:float -> cells:int -> spec
val cells : spec -> int

val cell_of : spec -> float -> int
[@@histolint.keep "[oracle_of_sampler] runs it; test_statkit pins it directly"]
(** Grid cell of a real observation; values outside [lo, hi) clamp to the
    boundary cells. @raise Invalid_argument on nan. *)

val cell_bounds : spec -> int -> float * float
[@@histolint.keep "[pmf_of_density] runs it; test_statkit pins it directly"]

val pmf_of_density : spec -> (float -> float) -> Pmf.t
(** Discretize a (not necessarily normalized) density by midpoint
    integration with 16 points per cell; the result is normalized. *)

val oracle_of_sampler :
  spec -> Randkit.Rng.t -> (Randkit.Rng.t -> float) -> Poissonize.oracle
(** Sample access over the gridded domain from a continuous sampler. *)

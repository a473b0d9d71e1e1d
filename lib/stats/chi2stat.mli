(** The ADK15 χ²-type statistic of Proposition 3.3:

    Z_j = Σ_{i ∈ I_j ∩ A_ε} ((N_i − m·D*(i))² − N_i) / (m·D*(i)),

    with A_ε = \{i : D*(i) ≥ ε/(50n)\}, computed over a partition (so the
    sieving stage can inspect and discard individual cells) and under
    Poissonized counts N_i.  Unbiasedness: E[Z] = m·dχ²-truncated(D ‖ D∗).

    Guarantees (paper, Prop. 3.3) for m ≥ 20000·√n/ε²:
    if dχ²(D ‖ D∗) ≤ ε²/500 then E[Z] ≤ m·ε²/500;
    if dTV(D, D∗) ≥ ε then E[Z] ≥ m·ε²/5; both with Var Z ≤ E[Z]²/100
    (far case) — hence thresholding at m·ε²/10 separates with constant
    probability. *)

type t = {
  z : float;  (** total statistic over the (kept) domain *)
  per_cell : float array;
      (** Z_j per partition cell (0 on dropped cells), in its first K
          entries: a supplied buffer may be longer *)
  m : float;  (** the Poisson mean the counts were drawn with *)
}

val heavy_cutoff : eps:float -> n:int -> float
(** The A_ε inclusion cutoff ε/(50n). *)

val compute :
  ?cell_mask:bool array ->
  ?per_cell:float array ->
  counts:int array ->
  m:float ->
  dstar:Pmf.t ->
  part:Partition.t ->
  eps:float ->
  unit ->
  t
(** Evaluate the statistic from Poissonized counts against the explicit
    hypothesis [dstar]; [cell_mask] restricts to the kept cells of the
    sieved domain.  When [per_cell] is supplied (length at least the cell
    count K) its first K entries are zeroed, used as the output, and the
    buffer is returned inside [t] — the
    hot-path variant: combined with the single internal compensated
    accumulator (no per-cell [Kahan.create], no per-term boxing) the call
    allocates only the result record.  The caller owns the buffer's
    lifetime; reusing it invalidates earlier results that alias it.
    Arithmetic is bit-identical with and without the buffer. *)

val compute_khist :
  ?cell_mask:bool array ->
  ?per_cell:float array ->
  counts:int array ->
  m:float ->
  dstar:Khist.t ->
  part:Partition.t ->
  eps:float ->
  unit ->
  t
(** {!compute} against a hypothesis held as pieces — cells and their
    levels — grouped by any partition [part] of the same domain: the
    statistic walks the common refinement of the two, reading each
    level once per run (a cell's stretch inside one piece), and never
    expands the hypothesis into n floats.  Bit-identical to
    [compute ?cell_mask ?per_cell ~dstar:(Khist.to_pmf dstar) ~part]:
    the same terms in the same element order, per cell of [part].
    Algorithm 1 groups its D̂ by D̂'s own cells
    ([~part:(Khist.partition dstar)]); the service groups a piecewise
    hypothesis by its equal-width diagnostic cells, which need not
    align with the pieces. *)

val accept_threshold : m:float -> eps:float -> float
(** m·ε²/10 — the decision threshold sitting between the two expectation
    regimes. *)

val expectation :
  ?cell_mask:bool array ->
  d:Pmf.t ->
  dstar:Pmf.t ->
  part:Partition.t ->
  eps:float ->
  m:float ->
  unit ->
  float
(** Closed-form E[Z] for a known truth [d] — used by the tests and by
    experiment E9 to verify the mean-separation claims. *)

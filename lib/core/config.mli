(** Every constant of Algorithm 1 and its subroutines, in one explicit
    record.

    [paper] carries the constants exactly as the text states them
    (m ≥ 20000·√n/ε², b = 20·k·log k/ε, learner accuracy ε/60, checking
    tolerance ε/60, final test at ε' = 13ε/30, Z-threshold m·ε²/10, sieve
    confidence δ = 1/(10(k+1)), the 10·U / 2·U / stage-1 sieve schedule of
    §3.2.1 with U = m·α²).

    [default], the practical profile, keeps every structural choice —
    the √n/ε² scaling, the log k iteration schedule, the k·log k removal
    budget, all threshold ratios — and re-balances only the leading
    constants, which are proof artifacts that put the statistical regimes
    out of reach at laptop n; the comment in the implementation derives
    the margins and experiments E1/E2 validate them end to end.  The
    sieve knobs exist so experiment E10 (the corrigendum-focused
    ablation) can vary the schedule. *)

type t = {
  c_test : float;  (** χ² tester budget: m = c_test·√n/ε² *)
  z_threshold_div : float;  (** accept iff Z ≤ m·ε²/z_threshold_div *)
  test_eps_frac : float;  (** final test runs at ε' = test_eps_frac·ε *)
  c_part_b : float;  (** ApproxPart parameter: b = c_part_b·k·log₂k/ε *)
  c_part_samples : float;  (** ApproxPart budget: c·b·log₂b samples *)
  c_learner : float;  (** Learner budget: c·ℓ/ε_learn² samples *)
  learner_eps_div : float;  (** learner accuracy ε_learn = ε/learner_eps_div *)
  check_eps_div : float;  (** Checking-step tolerance ε/check_eps_div *)
  sieve_alpha_div : float;  (** sieve statistic scale α = ε'/sieve_alpha_div *)
  sieve_stop_mult : float;
      (** sieve stop threshold, as a multiple of the final-test threshold
          at the sieve's own budget *)
  sieve_keep_frac : float;  (** stage-2 residual target = frac·stop *)
  sieve_stage1_mult : float;  (** stage-1 per-cell cut = mult·stop *)
  sieve_budget_factor : float;
      (** total removable cells = factor·k·log₂(k+1) *)
  sieve_extra_rounds : int;  (** rounds = ⌈log₂(k+1)⌉ + extra *)
  sieve_delta_mult : float;  (** sieve confidence δ = 1/(mult·(k+1)) *)
  sieve_reps_cap : int;  (** cap on median-trick repetitions per round *)
}

val paper : t
val default : t

val scale_budget : t -> float -> t
(** Scale every sample budget (test, learner, partition) by a factor —
    the knob the E1/E2 budget-scaling experiments turn. *)

val log2i : int -> int
(** ⌈log₂ x⌉ for x ≥ 2, and 1 below — the paper's log k with the k = 1
    case pinned. *)

val test_samples : t -> n:int -> eps:float -> int
val part_b : t -> k:int -> eps:float -> int
val part_samples : t -> b:int -> int
val learner_samples : t -> cells:int -> eps:float -> int

val sieve_alpha : t -> eps:float -> float
(** The α of §3.2.1's scenario: the scale the sieve computes its statistics
    at (smaller α = larger per-round budget). *)

val sieve_rounds : t -> k:int -> int
val sieve_budget : t -> k:int -> int

val sieve_reps : t -> k:int -> int
(** Median-trick repetitions giving per-test failure δ = 1/(mult·(k+1)),
    capped by [sieve_reps_cap]. *)

val sieve_stop_threshold : t -> m:float -> eps:float -> float
(** The Z level below which the sieve declares the kept domain clean. *)

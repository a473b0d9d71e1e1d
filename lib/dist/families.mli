(** Distribution families used as workloads throughout the experiments:
    members of H_k (completeness instances), distributions far from H_k
    (soundness instances), and the paper's lower-bound constructions. *)

val zipf : n:int -> s:float -> Pmf.t
(** Power-law ranks — the classic database attribute-skew model. *)

val staircase : n:int -> k:int -> rng:Randkit.Rng.t -> Pmf.t
(** k equal-width steps with random levels — an exactly-k-piece histogram
    (almost surely). *)

val random_khist : n:int -> k:int -> rng:Randkit.Rng.t -> Pmf.t
(** k pieces at uniformly random breakpoints with random levels. *)

val paninski : n:int -> eps:float -> c:float -> rng:Randkit.Rng.t -> Pmf.t
(** The Q_ε family of Proposition 4.1: pairs (2i−1, 2i) perturbed to
    (1 ± c·ε)/n with independent random signs.  TV distance c·ε/2 from
    uniform, and ≥ c·ε/6 from any H_k with k < n/3 (paper, §4.1).
    @raise Invalid_argument if n is odd or c·ε ≥ 1. *)

val mixture : (float * Pmf.t) list -> Pmf.t
(** Weighted mixture (weights normalized). *)

val spiked : n:int -> spikes:int -> spike_mass:float -> rng:Randkit.Rng.t -> Pmf.t
(** Uniform background plus [spikes] random heavy singletons sharing
    [spike_mass] — far from H_k for k well below 2·spikes. *)

val comb : n:int -> teeth:int -> Pmf.t
(** Alternating high/low blocks: an exactly (2·teeth)-histogram. *)

val bimodal : n:int -> Pmf.t

val of_spec : n:int -> rng:Randkit.Rng.t -> string -> (Pmf.t, string) result
(** The family vocabulary the CLI and the daemon share: [uniform],
    [staircase:K], [khist:K], [zipf:S], [geometric:R], [comb:T],
    [bimodal], [paninski:EPS] ({!paninski} at c = 6), [spiked:S],
    [monotone:P].  Randomized families draw from [rng].  An unknown name,
    a malformed number or parameters the constructor refuses come back
    as [Error], never as an exception. *)

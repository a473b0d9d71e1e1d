(** Plug-in testing of k-modality — the class the paper's remark after
    Theorem 1.2 extends the lower bound to.  Learns the distribution in TV
    (Θ(n/ε²) samples, no sublinearity claimed) and thresholds the exact
    DP distance to the k-modal class; experiment E14 pairs it with the
    lower-bound instances to illustrate the remark. *)

type report = {
  verdict : Verdict.t;
  estimated_distance : float;  (** dTV(empirical, k-modal class) *)
  samples_used : int;
}

val run : Poissonize.oracle -> k:int -> eps:float -> report

(** ApproxPart (Proposition 3.4): from O(b·log b) samples, a partition of
    [n] into K ≤ 2b+2 intervals such that with probability ≥ 9/10:

    (i)  every element with D(i) ≥ 1/b is isolated as a singleton;
    (ii) at most a couple of intervals are light (D(I) < 1/(2b)) —
    in this greedy realization, light intervals appear only immediately
    before a heavy singleton or at the right end of the domain;
    (iii) every other interval has D(I) ∈ [1/(2b), 2/b].

    Experiment E7 measures how often each clause holds. *)

type result = {
  partition : Partition.t;
  heavy : bool array;  (** per cell: is it a detected heavy singleton *)
  samples_used : int;
}

val partition :
  config:Config.t -> Workspace.t -> Poissonize.oracle -> b:int -> Partition.t * int
(** The partition and the samples drawn, with the cut positions and the
    per-cell heavy flags kept in the workspace ({!Workspace.cuts},
    {!Workspace.heavy}): what Algorithm 1 runs.  A warm call allocates
    the partition's cells and nothing per element. *)

val run : ?config:Config.t -> Poissonize.oracle -> b:int -> result
(** {!partition} in a fresh workspace, its heavy flags copied out. *)

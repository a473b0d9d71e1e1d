(** A uniform façade over the histogram testers, so the comparison
    experiments (E3, E4, E5) and the CLI can treat Algorithm 1 and the
    baselines interchangeably. *)

type t = {
  name : string;
  budget : n:int -> k:int -> eps:float -> int;
      (** planned worst-case sample budget *)
  run : Poissonize.oracle -> k:int -> eps:float -> Verdict.t;
}

val uniformity : ?config:Config.t -> unit -> t
(** Collision uniformity tester (ignores k; the k = 1 specialist). *)

val all : ?config:Config.t -> unit -> t list
(** The three k-histogram testers: ["algorithm1"] (this paper, Theorem
    3.1), ["ilr12"] (reads no {!Config} constant) and ["cdgr16"]. *)

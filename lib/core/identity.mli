(** Identity testing against an explicit hypothesis with the ℓ2-style
    statistic the CDGR16 baseline verifies its learned candidate with. *)

val l2_run :
  ?config:Config.t ->
  Poissonize.oracle ->
  dstar:Pmf.t ->
  eps:float ->
  Verdict.t * float * float * int
(** ℓ2-flavoured identity test (the pre-ADK15 style): returns
    (verdict, statistic, threshold, samples). *)

(** The [cover] statistic of Lemma 4.4: the minimum number of disjoint
    intervals needed to cover a subset S of [n] — equivalently the number of
    maximal runs of S.  A distribution whose support has cover s needs at
    least s pieces (2s−1 counting the gaps) to be a histogram; the
    support-size reduction rests on a random permutation keeping this large. *)

val of_mask : bool array -> int
[@@histolint.keep "[of_points] runs it; test_intervals pins it directly"]
(** Number of maximal [true]-runs. *)

val of_points : n:int -> int list -> int
(** Cover of a point set given as a list (duplicates fine).
    @raise Invalid_argument if a point falls outside the domain. *)

val right_borders : n:int -> int list -> int
[@@histolint.keep "reproduction artifact: Lemma 4.4's X; test_intervals checks it"]
(** The X statistic from the proof of Lemma 4.4 (count of i in S with
    i+1 not in S, i < n−1); satisfies cover − 1 ≤ X ≤ cover. *)

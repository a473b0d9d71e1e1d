(** Haar wavelet synopses — the alternative compact summary used by the
    streaming histogram-maintenance literature the paper's introduction
    cites ([GGI+02] maintains histograms through exactly these).  A b-term
    Haar synopsis is piecewise constant on at most O(b·log n) intervals,
    so it is itself a histogram in the paper's sense; experiment E12
    compares it against V-optimal and equi-depth summaries. *)

val transform : float array -> float array
[@@histolint.keep "[synopsis] runs it; test_histkit pins it directly"]
(** Fast Haar transform (averaging convention); the input is zero-padded
    to the next power of two.  Index 0 is the overall average, detail
    coefficients follow level by level. *)

val inverse : float array -> float array
[@@histolint.keep "[synopsis] runs it; test_histkit pins it directly"]
(** Exact inverse of {!transform} (power-of-two length required). *)

val top_coefficients : b:int -> float array -> float array
[@@histolint.keep "[synopsis] runs it; test_histkit pins it directly"]
(** Keep the [b] coefficients with the largest orthonormal (L2-error)
    contribution — the overall average always survives — zeroing the
    rest. *)

val synopsis : Pmf.t -> b:int -> Khist.t
(** The b-term synopsis as a histogram: transform, threshold, reconstruct,
    clip negatives, renormalize. *)

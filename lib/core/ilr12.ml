let budget ~n ~k ~eps =
  (* sqrt(k n) * log n / eps^5 is ILR12's stated complexity; the eps power
     makes even moderate eps prohibitive, which is part of what E3 shows.
     We keep the constant small since the growth shape is the point. *)
  let fn = float_of_int n and fk = float_of_int k in
  int_of_float
    (ceil (2. *. sqrt (fk *. fn) *. log fn /. ((eps ** 5.) *. log 2.)))

(* Is the conditional distribution on [lo, hi) of the counts close to
   flat?  Collision test on the samples that fell in the interval. *)
let flat_enough ~counts ~lo ~hi ~eps =
  let len = hi - lo in
  if len <= 1 then true
  else begin
    let m_in = ref 0 and coll = ref 0 in
    for i = lo to hi - 1 do
      m_in := !m_in + counts.(i);
      coll := !coll + (counts.(i) * (counts.(i) - 1) / 2)
    done;
    let m = float_of_int !m_in in
    if m < 2. then true (* too little mass to distinguish; treat as flat *)
    else begin
      let pairs = m *. (m -. 1.) /. 2. in
      float_of_int !coll <= pairs *. (1. +. (eps *. eps)) /. float_of_int len
    end
  end

let test oracle ~k ~eps =
  if k < 1 then invalid_arg "Ilr12.test: k must be at least 1";
  if eps <= 0. || eps > 1. then invalid_arg "Ilr12.test: eps outside (0, 1]";
  let n = oracle.Poissonize.n in
  let m = budget ~n ~k ~eps in
  (* Stage 1 — adaptive dyadic decomposition: one batch of samples feeds
     every scale (the original algorithm's sample reuse).  A k-histogram
     splits into at most ~2 k log2 n flat dyadic pieces; if the recursion
     needs far more, no coarse histogram structure exists at all. *)
  let counts = oracle.Poissonize.exact m in
  let leaf_budget = 8 * k * Config.log2i n in
  let leaves = ref [] and leaf_count = ref 0 and exceeded = ref false in
  let rec explore lo hi =
    if not !exceeded then
      if flat_enough ~counts ~lo ~hi ~eps || hi - lo <= 1 then begin
        leaves := (lo, hi) :: !leaves;
        incr leaf_count;
        if !leaf_count > leaf_budget then exceeded := true
      end
      else begin
        let mid = (lo + hi) / 2 in
        explore lo mid;
        explore mid hi
      end
  in
  explore 0 n;
  if !exceeded then Verdict.Reject
  else begin
    (* Stage 2 — structure check: the empirical flattening over the
       decomposition is close to D (each leaf passed a flatness test), so
       D is close to H_k iff the flattening is; that distance is computed
       exactly by the segmentation DP over the leaves.  This is the
       histogram-fitting step of the ILR12 approach. *)
    let fm = float_of_int m in
    let cells =
      List.rev_map
        (fun (lo, hi) ->
          let mass = ref 0 in
          for i = lo to hi - 1 do
            mass := !mass + counts.(i)
          done;
          let len = float_of_int (hi - lo) in
          { Closest.value = float_of_int !mass /. fm /. len; weight = len })
        !leaves
      |> Array.of_list
    in
    let cost, _ = Closest.fit_cells cells ~k in
    if 0.5 *. cost <= eps /. 2. then Verdict.Accept else Verdict.Reject
  end

type cell = { value : float; weight : float }
(* [weight] is the l1 weight of the cell: its length for kept cells, 0 for
   cells excluded from the (restricted) domain. *)

(* Every segment cost comes from one O(log K) oracle (Numkit.Rank_index
   over the cells' value ranks).  The dense reference in the test-only
   refkit (Refkit.Closest_dense) builds the same oracle, so the two DPs'
   layer values are comparable float for float: it differs only in its
   search strategy (exhaustive scan + Theta(K^2) cost matrix), which is
   exactly what the divide-and-conquer optimization replaces.  The fully
   independent cross-check is [brute_force_l1], which shares nothing but
   the cell decomposition. *)

module A = Bigarray.Array1

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let floats n : floats = A.create Bigarray.float64 Bigarray.c_layout n
let ints n : ints = A.create Bigarray.int Bigarray.c_layout n
let no_floats = floats 0
let no_ints = ints 0

(* Everything one DP run writes, outside the GC heap and reused: the
   staged cells (values, weights, and the domain position each starts
   at) the index is built from, the index itself (whose slot carries each
   query's answer), and the K x k layer values and choices (state (j, r)
   at r*k + j in both).  Each array grows to the largest K and k*K
   seen. *)
type scratch = {
  index : Numkit.Rank_index.t;
  mutable values : floats;
  mutable weights : floats;
  mutable starts : ints;
  mutable dp : floats;
  mutable choice : ints;
}

let scratch () =
  {
    index = Numkit.Rank_index.empty ();
    values = no_floats;
    weights = no_floats;
    starts = no_ints;
    dp = no_floats;
    choice = no_ints;
  }

(* Room for [need] staged cells, keeping the first [keep]. *)
let grow_staged s ~need ~keep =
  let cap = Int.max need (2 * A.dim s.values) in
  let values = floats cap and weights = floats cap and starts = ints cap in
  A.blit (A.sub s.values 0 keep) (A.sub values 0 keep);
  A.blit (A.sub s.weights 0 keep) (A.sub weights 0 keep);
  A.blit (A.sub s.starts 0 keep) (A.sub starts 0 keep);
  s.values <- values;
  s.weights <- weights;
  s.starts <- starts

(* Stage cell [i]; inlined, so its floats arrive unboxed. *)
let[@inline] stage s i ~value ~weight ~start =
  if i >= A.dim s.values then
    (grow_staged s ~need:(i + 1) ~keep:i
     [@histolint.alloc_ok
       "grows the staged cells past the largest input seen; every later \
        compression up to that size reuses them"]);
  A.unsafe_set s.values i value;
  A.unsafe_set s.weights i weight;
  A.unsafe_set s.starts i start

(* The tables grow to at least twice their old size, so a trial ensemble
   whose K creeps up a cell at a time regrows them a few times, not once
   per new largest K. *)
let reserve s ~kk ~k =
  if A.dim s.dp < k * kk then begin
    let cap = Int.max (k * kk) (2 * A.dim s.dp) in
    s.dp <- floats cap;
    s.choice <- ints cap
  end

(* Backwalk of a filled choice matrix: piece start indices, first = 0. *)
let walk_starts (choice : ints) ~k ~kk =
  let rec walk j r acc =
    if j = 0 then 0 :: acc
    else
      let l = A.get choice ((r * k) + j) in
      walk (j - 1) (l - 1) (l :: acc)
  in
  walk (k - 1) (kk - 1) []

let validate_fit name ~kk ~k =
  if kk = 0 then invalid_arg (name ^ ": no cells");
  if k <= 0 then invalid_arg (name ^ ": k must be positive");
  min k kk

(* Is the positive-weight value sequence of the [kk] staged cells
   monotone (either direction)?  Zero-weight cells are cost-transparent —
   the segment cost ignores them — so they do not affect the Monge
   property and are skipped. *)
let monotone_values s ~kk =
  let up = ref true and down = ref true in
  let seen = ref false and prev = ref 0. in
  for i = 0 to kk - 1 do
    if A.unsafe_get s.weights i > 0. then begin
      let v = A.unsafe_get s.values i in
      if !seen then begin
        let o = Float.compare v !prev in
        if o < 0 then up := false;
        if o > 0 then down := false
      end;
      seen := true;
      prev := v
    end
  done;
  !up || !down

(* One layer of the monotone-argmin divide and conquer: rows [rlo, rhi],
   argmin known to lie in [llo, lhi], in layer [j] of the dp table and
   the choice matrix, reading layer j-1 in place.  The segment cost of
   [l, mid] arrives in [slot.(0)]. *)
let rec solve_dc idx (slot : float array) ~(dp : floats) ~(choice : ints)
    ~k ~j rlo rhi llo lhi =
  if rlo <= rhi then begin
    let mid = rlo + ((rhi - rlo) / 2) in
    let cap = if lhi < mid then lhi else mid in
    let best = ref infinity in
    let arg = ref llo in
    for l = llo to cap do
      Numkit.Rank_index.seg_cost_into idx ~lo:l ~hi:(mid + 1);
      let c =
        A.unsafe_get dp (((l - 1) * k) + j - 1) +. Array.unsafe_get slot 0
      in
      if c < !best then begin
        best := c;
        arg := l
      end
    done;
    A.unsafe_set dp ((mid * k) + j) !best;
    A.unsafe_set choice ((mid * k) + j) !arg;
    solve_dc idx slot ~dp ~choice ~k ~j rlo (mid - 1) llo !arg;
    solve_dc idx slot ~dp ~choice ~k ~j (mid + 1) rhi !arg lhi
  end

(* Fast path.  Dispatches on the shape of the positive-weight value
   sequence:

   - Value-MONOTONE cells (flattened power-law / staircase-like targets,
     the E13/E18 sweeps): the weighted-L1 segment cost is concave-Monge
     — for l <= l' <= r <= r', seg(l, r) + seg(l', r') <=
     seg(l, r') + seg(l', r) (the k-median-on-a-line case) — so the
     LEFTMOST argmin of dp_prev(l-1) + seg(l, r) is nondecreasing in r
     and each layer runs as a divide and conquer: solve the middle row
     by scanning its candidate window, recurse left/right with the
     window split at the chosen argmin.  O(K log K) oracle calls per
     layer (O(K log^2 K) time).

   - ARBITRARY cells (empirical pmfs): the cost is NOT Monge and the
     true argmin can move left as r grows — values
     [.27 .22 .11 .09 .24] with unit weights have leftmost argmins 3
     then 1 at the two largest r for k = 2 — so the D&C window
     restriction is unsound (see DESIGN.md for the quadrangle-inequality
     violation).  The rows run in ascending r instead, each scanning its
     piece starts l = r, r-1, ..., 1 once: seg(l, r) is priced once and
     relaxes every layer j <= l at row r, dp_j(r) <- dp_{j-1}(l-1) +
     seg(l, r), from values earlier rows finished.  That is the dense
     reference's arithmetic, operand for operand, with each segment
     priced once instead of once per layer: K^2/2 oracle calls in all.

   Either way: state (j, r) of the dp table and the choice matrix sits
   at r*k + j, so the layers one priced segment relaxes are contiguous
   (layer-major rows of K took 16-22 % more CPU time at k = 32);
   O(K log K + kK) memory, no K x K matrix, all of it in the scratch.
   Layer 0 is seg(0, r) in both paths; with one piece (k = 1) nothing
   else is priced.

   Tie-break: the D&C scans candidates in ascending l with a strict
   improvement test, the row scan in descending l with a [<=] test, so
   in both the smallest l among equal candidates wins — the leftmost
   rule of the dense reference's ascending strict scan, which keeps the
   paths' breakpoints (and hence every dp value they produce)
   bit-identical.

   Runs over the [kk] cells staged in the scratch.  Returns the optimal
   cost; the breakpoints are left in the scratch's choice matrix. *)
let[@histolint.hot] run_dp s ~k ~kk =
  (reserve s ~kk ~k
   [@histolint.alloc_ok
     "grows the tables on the first fit of a larger k*K; every later fit \
      up to that size reuses them"]);
  let idx = s.index in
  Numkit.Rank_index.rebuild idx ~values:s.values ~weights:s.weights ~len:kk;
  let slot = Numkit.Rank_index.slot idx in
  let dp = s.dp and choice = s.choice in
  for r = 0 to kk - 1 do
    Numkit.Rank_index.seg_cost_into idx ~lo:0 ~hi:(r + 1);
    A.unsafe_set dp (r * k) (Array.unsafe_get slot 0)
  done;
  if monotone_values s ~kk then
    for j = 1 to k - 1 do
      solve_dc idx slot ~dp ~choice ~k ~j j (kk - 1) j (kk - 1)
    done
  else if k > 1 then
    for r = 1 to kk - 1 do
      let top = if r < k - 1 then r else k - 1 in
      for j = 1 to top do
        A.unsafe_set dp ((r * k) + j) infinity
      done;
      for l = r downto 1 do
        Numkit.Rank_index.seg_cost_into idx ~lo:l ~hi:(r + 1);
        let cost = Array.unsafe_get slot 0 in
        for j = 1 to if l < top then l else top do
          let c = A.unsafe_get dp (((l - 1) * k) + j - 1) +. cost in
          let at = (r * k) + j in
          if c <= A.unsafe_get dp at then begin
            A.unsafe_set dp at c;
            A.unsafe_set choice at l
          end
        done
      done
    done;
  A.get dp (((kk - 1) * k) + k - 1)

(* The fit of the [kk] cells staged in [s]: cost and piece starts. *)
let solve name s ~kk ~k =
  let k = validate_fit name ~kk ~k in
  let cost = run_dp s ~k ~kk in
  (cost, walk_starts s.choice ~k ~kk)

let fit_cells ?scratch:s cells ~k =
  let s = match s with Some s -> s | None -> scratch () in
  let kk = Array.length cells in
  for i = 0 to kk - 1 do
    let c = cells.(i) in
    stage s i ~value:c.value ~weight:c.weight ~start:i
  done;
  solve "Closest.fit_cells" s ~kk ~k

(* The optimal level (weighted lower median) of each chosen piece of the
   [kk] staged cells, read off the index the DP just built over them; a
   weightless piece gets level 0. *)
let fit_levels s ~kk starts =
  let bounds = Array.of_list (starts @ [ kk ]) in
  Array.init
    (Array.length bounds - 1)
    (fun p ->
      let m =
        Numkit.Rank_index.seg_median s.index ~lo:bounds.(p)
          ~hi:bounds.(p + 1)
      in
      if Float.is_nan m then 0. else m)

(* Compress [segs] nonempty constant segments covering [0..n-1] (segment s
   starts at [start s], with value [values.(s)] and keep status
   [kept s]) into DP cells staged in [sc]: maximal runs of equal (value,
   kept) status, each with its domain start.  Returns the cell count.
   Excluded runs of length >= 2 are split in two zero-weight cells so the
   DP can place a piece boundary strictly inside them at no cost.  This is
   the ONE run decomposition every entry point consumes (segments =
   points for a pmf, cells for a histogram), so a histogram compresses to
   exactly the cells of its expansion. *)
let compress sc ~n ~segs ~start ~(values : float array) ~kept =
  let count = ref 0 in
  let run_seg = ref 0 in
  let flush stop_seg =
    let run_start = start !run_seg in
    let len = (if stop_seg = segs then n else start stop_seg) - run_start in
    let v = values.(!run_seg) in
    if kept !run_seg then begin
      stage sc !count ~value:v ~weight:(float_of_int len) ~start:run_start;
      incr count
    end
    else if len = 1 then begin
      stage sc !count ~value:v ~weight:0. ~start:run_start;
      incr count
    end
    else begin
      (* Two free half-cells allow an interior piece boundary. *)
      stage sc !count ~value:v ~weight:0. ~start:run_start;
      stage sc (!count + 1) ~value:v ~weight:0. ~start:(run_start + (len / 2));
      count := !count + 2
    end;
    run_seg := stop_seg
  in
  for s = 1 to segs - 1 do
    if (not (Float.equal values.(s) values.(s - 1))) || kept s <> kept (s - 1)
    then flush s
  done;
  flush segs;
  !count

let compress_pmf sc ?mask pmf =
  let kept = match mask with None -> fun _ -> true | Some m -> Array.get m in
  compress sc ~n:(Pmf.size pmf) ~segs:(Pmf.size pmf) ~start:Fun.id
    ~values:(Pmf.unsafe_array pmf) ~kept

let compress_khist sc h ~keep =
  let part = Khist.partition h in
  if Array.length keep <> Partition.cell_count part then
    invalid_arg "Closest: keep mask length mismatch";
  compress sc ~n:(Partition.domain_size part) ~segs:(Partition.cell_count part)
    ~start:(fun j -> Interval.lo (Partition.cell part j))
    ~values:(Khist.unsafe_levels h) ~kept:(Array.get keep)

let staged_cells sc ~kk =
  Array.init kk (fun i ->
      { value = A.get sc.values i; weight = A.get sc.weights i })

let cells_of_pmf ?mask pmf =
  let sc = scratch () in
  staged_cells sc ~kk:(compress_pmf sc ?mask pmf)

let cells_of_khist h ~keep =
  let sc = scratch () in
  staged_cells sc ~kk:(compress_khist sc h ~keep)

let fit_khist s h ~keep ~k =
  solve "Closest.fit_khist" s ~kk:(compress_khist s h ~keep) ~k

let l1_to_hk ?mask pmf ~k =
  let s = scratch () in
  fst (solve "Closest.fit_cells" s ~kk:(compress_pmf s ?mask pmf) ~k)

let tv_to_hk ?mask pmf ~k = 0.5 *. l1_to_hk ?mask pmf ~k

let witness ?mask pmf ~k =
  let n = Pmf.size pmf in
  let s = scratch () in
  let kk = compress_pmf s ?mask pmf in
  let cost, starts = solve "Closest.fit_cells" s ~kk ~k in
  let levels = fit_levels s ~kk starts in
  let cell_lo c = A.get s.starts c in
  let breaks =
    List.filter_map (fun c -> if c = 0 then None else Some (cell_lo c)) starts
    |> List.sort_uniq Int.compare
  in
  let part = Partition.of_breakpoints ~n breaks in
  (* One level per partition cell, from the DP pieces.  [bounds] is the
     strictly increasing list of piece start positions, so the piece of a
     domain position is a predecessor lookup: last bound <= x. *)
  let bounds = Array.of_list (List.map cell_lo starts) in
  let piece_of_pos x = Numkit.Search.upper_bound_int bounds x - 1 in
  let lv =
    Array.init (Partition.cell_count part) (fun j ->
        levels.(piece_of_pos (Interval.lo (Partition.cell part j))))
  in
  (cost, Khist.make part lv)

let brute_force_l1 ?mask pmf ~k =
  (* Exhaustive search over all breakpoint placements; exponential, only for
     cross-checking the DP on tiny domains in the test suite. *)
  let n = Pmf.size pmf in
  if n > 16 then invalid_arg "Closest.brute_force_l1: domain too large";
  let p = Pmf.unsafe_array pmf in
  let kept i = match mask with None -> true | Some m -> m.(i) in
  let best = ref infinity in
  (* Choose up to k-1 breakpoints among positions 1..n-1. *)
  let rec go pos pieces_left breaks =
    if pos > n - 1 || pieces_left = 0 then eval (List.rev breaks)
    else begin
      go (pos + 1) pieces_left breaks;
      go (pos + 1) (pieces_left - 1) (pos :: breaks)
    end
  and eval breaks =
    let bounds = Array.of_list ((0 :: breaks) @ [ n ]) in
    let total = ref 0. in
    for b = 0 to Array.length bounds - 2 do
      let lo = bounds.(b) and hi = bounds.(b + 1) in
      let med = Numkit.Wmedian.create () in
      for i = lo to hi - 1 do
        Numkit.Wmedian.add med ~value:p.(i)
          ~weight:(if kept i then 1. else 0.)
      done;
      total := !total +. Numkit.Wmedian.cost med
    done;
    if !total < !best then best := !total
  in
  go 1 (k - 1) [];
  !best

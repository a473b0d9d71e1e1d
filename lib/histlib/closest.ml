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
   staged cell values and weights the index is built from, the index
   itself (whose slot carries each query's answer), the two DP rows, the
   suffix minima of the certified scan, and the k x K choice matrix (row
   j at offset j*K).  Rows and matrix grow to the largest K and k*K
   seen. *)
type scratch = {
  index : Numkit.Rank_index.t;
  mutable values : floats;
  mutable weights : floats;
  mutable dp_a : floats;
  mutable dp_b : floats;
  mutable smin : floats;
  mutable choice : ints;
}

let scratch () =
  {
    index = Numkit.Rank_index.empty ();
    values = no_floats;
    weights = no_floats;
    dp_a = no_floats;
    dp_b = no_floats;
    smin = no_floats;
    choice = no_ints;
  }

let reserve s ~kk ~k =
  if A.dim s.values < kk then begin
    s.values <- floats kk;
    s.weights <- floats kk;
    s.dp_a <- floats kk;
    s.dp_b <- floats kk;
    s.smin <- floats (kk + 1)
  end;
  if A.dim s.choice < k * kk then s.choice <- ints (k * kk)

(* Backwalk of a filled choice matrix: piece start indices, first = 0. *)
let walk_starts (choice : ints) ~k ~kk =
  let rec walk j r acc =
    if j = 0 then 0 :: acc
    else
      let l = A.get choice ((j * kk) + r) in
      walk (j - 1) (l - 1) (l :: acc)
  in
  walk (k - 1) (kk - 1) []

let validate_fit name cells ~k =
  let kk = Array.length cells in
  if kk = 0 then invalid_arg (name ^ ": no cells");
  if k <= 0 then invalid_arg (name ^ ": k must be positive");
  min k kk

(* Is the positive-weight value sequence monotone (either direction)?
   Zero-weight cells are cost-transparent — the segment cost ignores
   them — so they do not affect the Monge property and are skipped. *)
let monotone_values cells =
  let up = ref true and down = ref true in
  let seen = ref false and prev = ref 0. in
  for i = 0 to Array.length cells - 1 do
    let c = cells.(i) in
    if c.weight > 0. then begin
      if !seen then begin
        let o = Float.compare c.value !prev in
        if o < 0 then up := false;
        if o > 0 then down := false
      end;
      seen := true;
      prev := c.value
    end
  done;
  !up || !down

(* One layer of the monotone-argmin divide and conquer: rows [rlo, rhi],
   argmin known to lie in [llo, lhi]; [row] is the layer's offset in the
   choice matrix.  The segment cost of [l, mid] arrives in [slot.(0)]. *)
let rec solve_dc idx (slot : float array) ~(prev : floats) ~(cur : floats)
    ~(choice : ints) ~row rlo rhi llo lhi =
  if rlo <= rhi then begin
    let mid = rlo + ((rhi - rlo) / 2) in
    let cap = if lhi < mid then lhi else mid in
    let best = ref infinity in
    let arg = ref llo in
    for l = llo to cap do
      Numkit.Rank_index.seg_cost_into idx ~lo:l ~hi:(mid + 1);
      let c = A.unsafe_get prev (l - 1) +. Array.unsafe_get slot 0 in
      if c < !best then begin
        best := c;
        arg := l
      end
    done;
    A.unsafe_set cur mid !best;
    A.unsafe_set choice (row + mid) !arg;
    solve_dc idx slot ~prev ~cur ~choice ~row rlo (mid - 1) llo !arg;
    solve_dc idx slot ~prev ~cur ~choice ~row (mid + 1) rhi !arg lhi
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
     violation).  Each row instead runs an ascending scan with a
     certified cutoff: stop at the first l whose suffix-min of dp_prev
     already exceeds the row's running best.  Every skipped candidate
     satisfies dp_prev(l'-1) + seg >= suffix_min > best (seg >= 0 and
     IEEE addition of non-negatives is monotone), i.e. is strictly
     worse, so the scan result is bit-identical to the dense reference
     while examining, typically, far fewer candidates — and provably
     never more.

   Either way: O(K log K + kK) memory, no K x K matrix, all of it in the
   scratch.  A layer's row j-1 is read only at indices >= j-1, which
   layer j-1 wrote, so the two rows swap roles instead of being copied
   or cleared.

   Tie-break: both strategies scan candidates in ascending l with a
   strict improvement test, so the leftmost argmin wins — the same rule
   as the ascending scan of the dense path, which keeps the two paths'
   breakpoints (and hence every dp value they produce) bit-identical.
   (The cutoff cannot drop a tie either: a candidate tying the final
   best has dp_prev(l-1) <= best, hence suffix_min(l) <= best.)

   Returns the optimal cost; the breakpoints are left in the scratch's
   choice matrix. *)
let[@histolint.hot] run_dp s cells ~k ~kk =
  (reserve s ~kk ~k
   [@histolint.alloc_ok
     "grows the rows on the first fit of a larger K or k*K; every later \
      fit up to that size reuses them"]);
  let values = s.values and weights = s.weights in
  for i = 0 to kk - 1 do
    let c = cells.(i) in
    A.unsafe_set values i c.value;
    A.unsafe_set weights i c.weight
  done;
  let idx = s.index in
  Numkit.Rank_index.rebuild idx ~values ~weights ~len:kk;
  let slot = Numkit.Rank_index.slot idx in
  let choice = s.choice and smin = s.smin in
  let prev = ref s.dp_a and cur = ref s.dp_b in
  for r = 0 to kk - 1 do
    Numkit.Rank_index.seg_cost_into idx ~lo:0 ~hi:(r + 1);
    A.unsafe_set !prev r (Array.unsafe_get slot 0)
  done;
  let monge = monotone_values cells in
  for j = 1 to k - 1 do
    let dp_prev = !prev and dp_cur = !cur in
    let row = j * kk in
    if monge then
      solve_dc idx slot ~prev:dp_prev ~cur:dp_cur ~choice ~row j (kk - 1) j
        (kk - 1)
    else begin
      (* smin.{l} = min over l' >= l of dp_prev.{l' - 1}.  The rows hold
         no NaN, and a tie's sign of zero cannot change a [>] test, so
         the plain comparison stands in for Float.min. *)
      A.unsafe_set smin kk infinity;
      for l = kk - 1 downto j do
        let a = A.unsafe_get dp_prev (l - 1) in
        let b = A.unsafe_get smin (l + 1) in
        A.unsafe_set smin l (if a < b then a else b)
      done;
      for r = j to kk - 1 do
        let best = ref infinity in
        let arg = ref j in
        let l = ref j in
        let live = ref true in
        while !live && !l <= r do
          if A.unsafe_get smin !l > !best then live := false
          else begin
            Numkit.Rank_index.seg_cost_into idx ~lo:!l ~hi:(r + 1);
            let c = A.unsafe_get dp_prev (!l - 1) +. Array.unsafe_get slot 0 in
            if c < !best then begin
              best := c;
              arg := !l
            end;
            incr l
          end
        done;
        A.unsafe_set dp_cur r !best;
        A.unsafe_set choice (row + r) !arg
      done
    end;
    prev := dp_cur;
    cur := dp_prev
  done;
  A.get !prev (kk - 1)

let fit_cells ?scratch:s cells ~k =
  let kk = Array.length cells in
  let k = validate_fit "Closest.fit_cells" cells ~k in
  let s = match s with Some s -> s | None -> scratch () in
  let cost = run_dp s cells ~k ~kk in
  (cost, walk_starts s.choice ~k ~kk)

let fit_levels cells starts =
  (* Re-derive the optimal level (weighted median) of each chosen piece. *)
  let kk = Array.length cells in
  let bounds = Array.of_list (starts @ [ kk ]) in
  Array.init
    (Array.length bounds - 1)
    (fun p ->
      let med = Numkit.Wmedian.create () in
      for c = bounds.(p) to bounds.(p + 1) - 1 do
        Numkit.Wmedian.add med ~value:cells.(c).value ~weight:cells.(c).weight
      done;
      let m = Numkit.Wmedian.median med in
      if Float.is_nan m then 0. else m)

(* Compress [segs] nonempty constant segments covering [0..n-1] (segment s
   starts at [start s], with value [value s] and keep status [kept s];
   [same s]: is its value segment s-1's?) into DP cells: maximal runs of
   equal (value, kept) status, together with each cell's domain start.
   Excluded runs of length >= 2 are split in two zero-weight cells so the
   DP can place a piece boundary strictly inside them at no cost.  This is
   the ONE run decomposition [cells_of_pmf], [witness] (segments = points)
   and [cells_of_khist] (segments = cells) consume, so the cell array and
   the extent array cannot drift apart, and a histogram compresses to
   exactly the cells of its expansion. *)
let compress ~n ~segs ~start ~value ~same ~kept =
  let cells = ref [] in
  let starts = ref [] in
  let run_seg = ref 0 in
  let flush stop_seg =
    let run_start = start !run_seg in
    let len = (if stop_seg = segs then n else start stop_seg) - run_start in
    let v = value !run_seg in
    if kept !run_seg then begin
      cells := { value = v; weight = float_of_int len } :: !cells;
      starts := run_start :: !starts
    end
    else if len = 1 then begin
      cells := { value = v; weight = 0. } :: !cells;
      starts := run_start :: !starts
    end
    else begin
      (* Two free half-cells allow an interior piece boundary. *)
      cells :=
        { value = v; weight = 0. } :: { value = v; weight = 0. } :: !cells;
      starts := (run_start + (len / 2)) :: run_start :: !starts
    end;
    run_seg := stop_seg
  in
  for s = 1 to segs - 1 do
    if (not (same s)) || kept s <> kept (s - 1) then flush s
  done;
  flush segs;
  (Array.of_list (List.rev !cells), Array.of_list (List.rev !starts))

let runs_of_pmf ?mask pmf =
  let n = Pmf.size pmf in
  let p = Pmf.unsafe_array pmf in
  let kept = match mask with None -> fun _ -> true | Some m -> Array.get m in
  compress ~n ~segs:n ~start:Fun.id ~value:(Array.get p)
    ~same:(fun i -> Float.equal p.(i) p.(i - 1))
    ~kept

let cells_of_pmf ?mask pmf = fst (runs_of_pmf ?mask pmf)

let cells_of_khist h ~keep =
  let part = Khist.partition h in
  let cells = Partition.cell_count part in
  if Array.length keep <> cells then
    invalid_arg "Closest.cells_of_khist: keep mask length mismatch";
  let lv = Khist.unsafe_levels h in
  fst
    (compress ~n:(Partition.domain_size part) ~segs:cells
       ~start:(fun j -> Interval.lo (Partition.cell part j))
       ~value:(Array.get lv)
       ~same:(fun j -> Float.equal lv.(j) lv.(j - 1))
       ~kept:(Array.get keep))

let l1_to_hk ?mask pmf ~k =
  let cells = cells_of_pmf ?mask pmf in
  let cost, _ = fit_cells cells ~k in
  cost

let tv_to_hk ?mask pmf ~k = 0.5 *. l1_to_hk ?mask pmf ~k

let witness ?mask pmf ~k =
  let n = Pmf.size pmf in
  let cells, cell_lo = runs_of_pmf ?mask pmf in
  let cost, starts = fit_cells cells ~k in
  let levels = fit_levels cells starts in
  let breaks =
    List.filter_map (fun s -> if s = 0 then None else Some cell_lo.(s)) starts
    |> List.sort_uniq Int.compare
  in
  let part = Partition.of_breakpoints ~n breaks in
  (* One level per partition cell, from the DP pieces.  [bounds] is the
     strictly increasing list of piece start positions, so the piece of a
     domain position is a predecessor lookup: last bound <= x. *)
  let bounds = Array.of_list (List.map (fun s -> cell_lo.(s)) starts) in
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

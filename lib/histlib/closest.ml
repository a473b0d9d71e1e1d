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
let oracle_of_cells cells =
  Numkit.Rank_index.create
    ~values:(Array.map (fun c -> c.value) cells)
    ~weights:(Array.map (fun c -> c.weight) cells)

(* Backwalk of a filled choice matrix: piece start indices, first = 0. *)
let walk_starts choice ~k ~kk =
  let rec walk j r acc =
    if j = 0 then 0 :: acc
    else
      let l = choice.(j).(r) in
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
  let prev = ref nan in
  Array.iter
    (fun c ->
      if c.weight > 0. then begin
        if not (Float.is_nan !prev) then begin
          let o = Float.compare c.value !prev in
          if o < 0 then up := false;
          if o > 0 then down := false
        end;
        prev := c.value
      end)
    cells;
  !up || !down

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

   Either way: O(K log K + kK) memory, no K x K matrix.

   Tie-break: both strategies scan candidates in ascending l with a
   strict improvement test, so the leftmost argmin wins — the same rule
   as the ascending scan of the dense path, which keeps the two paths'
   breakpoints (and hence every dp value they produce) bit-identical.
   (The cutoff cannot drop a tie either: a candidate tying the final
   best has dp_prev(l-1) <= best, hence suffix_min(l) <= best.) *)
let fit_cells cells ~k =
  let kk = Array.length cells in
  let k = validate_fit "Closest.fit_cells" cells ~k in
  let idx = oracle_of_cells cells in
  let seg l r = Numkit.Rank_index.seg_cost idx ~lo:l ~hi:(r + 1) in
  let dp_prev = Array.make kk infinity in
  let dp_cur = Array.make kk infinity in
  let choice = Array.make_matrix k kk 0 in
  for r = 0 to kk - 1 do
    dp_prev.(r) <- seg 0 r
  done;
  let monge = monotone_values cells in
  (* smin.(l) = min over l' >= l of dp_prev.(l' - 1); rebuilt per layer
     on the certified-scan path. *)
  let smin = Array.make (kk + 1) infinity in
  for j = 1 to k - 1 do
    Array.fill dp_cur 0 kk infinity;
    let row = choice.(j) in
    if monge then begin
      (* Rows [rlo, rhi], argmin known to lie in [llo, lhi]. *)
      let rec solve rlo rhi llo lhi =
        if rlo <= rhi then begin
          let mid = rlo + ((rhi - rlo) / 2) in
          let cap = min lhi mid in
          let best = ref infinity in
          let arg = ref llo in
          for l = llo to cap do
            let c = dp_prev.(l - 1) +. seg l mid in
            if c < !best then begin
              best := c;
              arg := l
            end
          done;
          dp_cur.(mid) <- !best;
          row.(mid) <- !arg;
          solve rlo (mid - 1) llo !arg;
          solve (mid + 1) rhi !arg lhi
        end
      in
      solve j (kk - 1) j (kk - 1)
    end
    else begin
      smin.(kk) <- infinity;
      for l = kk - 1 downto j do
        smin.(l) <- Float.min dp_prev.(l - 1) smin.(l + 1)
      done;
      for r = j to kk - 1 do
        let best = ref infinity in
        let arg = ref j in
        let l = ref j in
        let live = ref true in
        while !live && !l <= r do
          if smin.(!l) > !best then live := false
          else begin
            let c = dp_prev.(!l - 1) +. seg !l r in
            if c < !best then begin
              best := c;
              arg := !l
            end;
            incr l
          end
        done;
        dp_cur.(r) <- !best;
        row.(r) <- !arg
      done
    end;
    Array.blit dp_cur 0 dp_prev 0 kk
  done;
  (dp_prev.(kk - 1), walk_starts choice ~k ~kk)

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

(* Compress a pmf (plus a point-level keep mask) into DP cells: maximal runs
   of equal (value, kept) status, together with each cell's domain start.
   Excluded runs of length >= 2 are split in two zero-weight cells so the DP
   can place a piece boundary strictly inside them at no cost.  This is the
   ONE run decomposition both [cells_of_pmf] and [witness] consume, so the
   cell array and the extent array cannot drift apart. *)
let runs_of_pmf ?mask pmf =
  let n = Pmf.size pmf in
  let p = Pmf.unsafe_array pmf in
  let kept i = match mask with None -> true | Some m -> m.(i) in
  let cells = ref [] in
  let starts = ref [] in
  let run_start = ref 0 in
  let flush stop =
    if stop > !run_start then begin
      let len = stop - !run_start in
      let is_kept = kept !run_start in
      let v = p.(!run_start) in
      if is_kept then begin
        cells := { value = v; weight = float_of_int len } :: !cells;
        starts := !run_start :: !starts
      end
      else if len = 1 then begin
        cells := { value = v; weight = 0. } :: !cells;
        starts := !run_start :: !starts
      end
      else begin
        (* Two free half-cells allow an interior piece boundary. *)
        cells :=
          { value = v; weight = 0. } :: { value = v; weight = 0. } :: !cells;
        starts := (!run_start + (len / 2)) :: !run_start :: !starts
      end;
      run_start := stop
    end
  in
  for i = 1 to n - 1 do
    if (not (Float.equal p.(i) p.(i - 1))) || kept i <> kept (i - 1) then
      flush i
  done;
  flush n;
  (Array.of_list (List.rev !cells), Array.of_list (List.rev !starts))

let cells_of_pmf ?mask pmf = fst (runs_of_pmf ?mask pmf)

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

(* Wavelet tree over value ranks with weight and weight*value prefix sums.

   Built once over a fixed sequence of (value, weight) pairs, the index
   answers, for any contiguous position range [lo, hi):

     - the weighted lower median of the values in the range, and
     - the optimal weighted-L1 cost  min_v sum_i w_i * |v_i - v|

   in O(log R) where R is the number of distinct values — with no K x K
   table.  This is the segment-cost oracle behind the divide-and-conquer
   closest-k-histogram DP (Closest.fit_cells): the dense formulation
   needs a Theta(K^2) cost matrix, the index needs O(K log R) floats.

   Structure: the standard wavelet tree.  Each node covers a rank
   interval [rlo, rhi) and holds the positions whose value rank falls in
   it, in original order; ranks < mid go to the left child.  Per node we
   keep prefix counts (how many of the first i elements go left) plus
   prefix sums of their weight and weight*value, so a range [a, b) maps
   to a child range in O(1) and the weight routed left is a two-lookup
   difference.  A leaf covers one rank and keeps plain weight / w*v
   prefixes.

   Median descent: with target = W/2 (W the range's total weight), go
   left iff the weight at ranks below the current subtree's midpoint
   reaches the target — i.e. find the SMALLEST rank m whose cumulative
   range weight is >= W/2, the same lower-median convention as
   Wmedian's two-heap invariant.  Accumulating the weight and w*v mass
   strictly below the final rank on the way down gives the L1 cost in
   closed form at the leaf:

     cost = 2*(m*W_<=m - S_<=m) + S_tot - m*W_tot

   (split sum_{v<m} w*(m-v) + sum_{v>m} w*(v-m) and use S_m = m*W_m).

   Determinism: queries are pure lookups over arrays frozen at [create]
   time; equal-cost ties in callers' DPs are broken by the callers, not
   here.  All float comparisons go through IEEE operators or
   Float.compare/Float.equal (histolint: float/poly-compare). *)

type node =
  | Leaf of { wpre : float array; spre : float array }
  | Node of {
      mid : int; (* ranks < mid descend left *)
      cnt : int array; (* cnt.(i): of the node's first i elements, # left *)
      wl : float array; (* weight of those elements *)
      sl : float array; (* weight*value of those elements *)
      left : node;
      right : node;
    }

type t = {
  size : int;
  rank_value : float array; (* value of each rank, ascending *)
  wpre : float array; (* global prefix weights by position *)
  spre : float array; (* global prefix weight*value by position *)
  root : node;
}


let create ~values ~weights =
  let k = Array.length values in
  if k = 0 then invalid_arg "Rank_index.create: empty input";
  if Array.length weights <> k then
    invalid_arg "Rank_index.create: values/weights length mismatch";
  Array.iter
    (fun v ->
      if Float.is_nan v then invalid_arg "Rank_index.create: NaN value")
    values;
  Array.iter
    (fun w ->
      if not (w >= 0.) then
        invalid_arg "Rank_index.create: negative or NaN weight")
    weights;
  (* Distinct sorted values -> dense ranks. *)
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let nranks = ref 0 in
  Array.iteri
    (fun i v ->
      if i = 0 || not (Float.equal v sorted.(i - 1)) then begin
        sorted.(!nranks) <- v;
        incr nranks
      end)
    sorted;
  let rank_value = Array.sub sorted 0 !nranks in
  let ranks = Array.map (fun v -> Search.lower_bound rank_value v) values in
  let wv = Array.init k (fun i -> weights.(i) *. values.(i)) in
  let wpre = Array.make (k + 1) 0. in
  let spre = Array.make (k + 1) 0. in
  for i = 0 to k - 1 do
    wpre.(i + 1) <- wpre.(i) +. weights.(i);
    spre.(i + 1) <- spre.(i) +. wv.(i)
  done;
  (* Recursive build; each level re-partitions the node's elements
     stably, so the whole tree costs O(K log R) time and space. *)
  let rec build rlo rhi rk w s =
    let len = Array.length rk in
    if rhi - rlo = 1 then begin
      let wp = Array.make (len + 1) 0. in
      let sp = Array.make (len + 1) 0. in
      for i = 0 to len - 1 do
        wp.(i + 1) <- wp.(i) +. w.(i);
        sp.(i + 1) <- sp.(i) +. s.(i)
      done;
      Leaf { wpre = wp; spre = sp }
    end
    else begin
      let mid = rlo + ((rhi - rlo) / 2) in
      let nl = ref 0 in
      for i = 0 to len - 1 do
        if rk.(i) < mid then incr nl
      done;
      let nl = !nl in
      let nr = len - nl in
      let cnt = Array.make (len + 1) 0 in
      let wlp = Array.make (len + 1) 0. in
      let slp = Array.make (len + 1) 0. in
      let rk_l = Array.make nl 0 and rk_r = Array.make nr 0 in
      let w_l = Array.make nl 0. and w_r = Array.make nr 0. in
      let s_l = Array.make nl 0. and s_r = Array.make nr 0. in
      let il = ref 0 and ir = ref 0 in
      for i = 0 to len - 1 do
        if rk.(i) < mid then begin
          cnt.(i + 1) <- cnt.(i) + 1;
          wlp.(i + 1) <- wlp.(i) +. w.(i);
          slp.(i + 1) <- slp.(i) +. s.(i);
          rk_l.(!il) <- rk.(i);
          w_l.(!il) <- w.(i);
          s_l.(!il) <- s.(i);
          incr il
        end
        else begin
          cnt.(i + 1) <- cnt.(i);
          wlp.(i + 1) <- wlp.(i);
          slp.(i + 1) <- slp.(i);
          rk_r.(!ir) <- rk.(i);
          w_r.(!ir) <- w.(i);
          s_r.(!ir) <- s.(i);
          incr ir
        end
      done;
      Node
        {
          mid;
          cnt;
          wl = wlp;
          sl = slp;
          left = build rlo mid rk_l w_l s_l;
          right = build mid rhi rk_r w_r s_r;
        }
    end
  in
  { size = k; rank_value; wpre; spre; root = build 0 !nranks ranks weights wv }

let check_range t ~lo ~hi =
  if lo < 0 || hi > t.size || lo >= hi then
    invalid_arg "Rank_index: empty or out-of-range segment"

(* One descent serves both queries; the DP issues O(K log K) of them per
   layer.  It is a loop over local refs, not a recursion: without flambda
   every float argument of a call is boxed, while a float ref that never
   escapes stays unboxed, so a query allocates only its boxed result.
   [acc_w]/[acc_s] are the range weight and weight*value at ranks
   strictly below the current subtree, so the closed form is available
   at the leaf. *)
let descend t ~lo ~hi ~median =
  check_range t ~lo ~hi;
  let w_tot = t.wpre.(hi) -. t.wpre.(lo) in
  if not (w_tot > 0.) then if median then nan else 0.
  else begin
    let s_tot = t.spre.(hi) -. t.spre.(lo) in
    let half = w_tot /. 2. in
    let node = ref t.root and a = ref lo and b = ref hi and rlo = ref 0 in
    let acc_w = ref 0. and acc_s = ref 0. in
    let result = ref 0. and descending = ref true in
    while !descending do
      match !node with
      | Leaf { wpre; spre } ->
          let m = t.rank_value.(!rlo) in
          let w_le = !acc_w +. (wpre.(!b) -. wpre.(!a)) in
          let s_le = !acc_s +. (spre.(!b) -. spre.(!a)) in
          let c = (2. *. ((m *. w_le) -. s_le)) +. (s_tot -. (m *. w_tot)) in
          (* Clamp the rounding residue of an exact fit to a clean zero. *)
          result := if median then m else if c > 0. then c else 0.;
          descending := false
      | Node { mid; cnt; wl; sl; left; right } ->
          let a0 = !a and b0 = !b in
          let wleft = wl.(b0) -. wl.(a0) in
          if !acc_w +. wleft >= half then begin
            node := left;
            a := cnt.(a0);
            b := cnt.(b0)
          end
          else begin
            node := right;
            a := a0 - cnt.(a0);
            b := b0 - cnt.(b0);
            rlo := mid;
            acc_w := !acc_w +. wleft;
            acc_s := !acc_s +. (sl.(b0) -. sl.(a0))
          end
    done;
    !result
  end

let seg_cost t ~lo ~hi = descend t ~lo ~hi ~median:false
let seg_median t ~lo ~hi = descend t ~lo ~hi ~median:true

let seg_weight t ~lo ~hi =
  check_range t ~lo ~hi;
  t.wpre.(hi) -. t.wpre.(lo)

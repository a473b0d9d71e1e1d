(* Wavelet tree over value ranks with weight and weight*value prefix sums.

   Built over a sequence of (value, weight) pairs, the index answers, for
   any contiguous position range [lo, hi):

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
   prefixes.  The prefixes are LOCAL to each node (they restart at 0.),
   which fixes how every query rounds; per-level global prefixes would
   round differently.

   Layout: everything lives in Bigarrays, outside the GC heap, and is
   rebuilt in place.  The nodes form one table in breadth-first order,
   [stride] ints each (see the slot names below); a node's three prefix
   pools are [len + 1] consecutive entries of three shared pools
   starting at its [base].  The count pool is stored as positions: entry
   i holds where the left child's own prefix for the first i elements
   sits, so a descent step is one dependent load (see [split_level]).
   The build runs level by level: a level's nodes read their elements
   from one of two ping-pong buffers and partition them stably into the
   other, at the same offsets, so no node gets arrays of its own.  The
   buffers grow only when a build needs more room than any before it,
   so a warm rebuild allocates nothing.

   Median descent: with target = W/2 (W the range's total weight), go
   left iff the weight at ranks below the current subtree's midpoint
   reaches the target — i.e. find the SMALLEST rank m whose cumulative
   range weight is >= W/2, the same lower-median convention as
   Wmedian's two-heap invariant.  Accumulating the weight and w*v mass
   strictly below the final rank on the way down gives the L1 cost in
   closed form at the leaf:

     cost = 2*(m*W_<=m - S_<=m) + S_tot - m*W_tot

   (split sum_{v<m} w*(m-v) + sum_{v>m} w*(v-m) and use S_m = m*W_m).

   Determinism: queries are lookups over tables fixed by the last build;
   equal-cost ties in callers' DPs are broken by the callers, not here.
   All float comparisons go through IEEE operators or
   Float.compare/Float.equal (histolint: float/poly-compare). *)

module A = Bigarray.Array1

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) A.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let floats n : floats = A.create Bigarray.float64 Bigarray.c_layout n
let ints n : ints = A.create Bigarray.int Bigarray.c_layout n
let no_floats = floats 0
let no_ints = ints 0

(* Node table slots.  [s_rlo] is a leaf's rank; [s_left] is -1 at a
   leaf, else the left child's id (the right child is the next one);
   [s_shift] maps pool positions to the right child (see [split_level]).
   [s_base], [s_rhi], [s_off] (where the node's elements sit in the
   level buffers) and [s_len] are read by the build only. *)
let stride = 8
let s_rlo = 0
let s_base = 1
let s_left = 2
let s_rhi = 3
let s_off = 4
let s_len = 5
let s_shift = 6

type t = {
  mutable cap : int; (* positions every buffer below has room for *)
  mutable size : int; (* K of the last build; 0 before the first *)
  mutable nodes : int; (* build cursor: nodes in the table *)
  mutable pooled : int; (* build cursor: pool entries handed out *)
  mutable rank_value : floats; (* value of each rank, ascending *)
  mutable wpre : floats; (* global prefix weights by position *)
  mutable spre : floats; (* global prefix weight*value by position *)
  mutable rk : ints; (* level buffers: rank, weight, w*v; two halves *)
  mutable w : floats;
  mutable s : floats;
  mutable node : ints;
  mutable down : ints; (* pools: left-child position, weight left, w*v left *)
  mutable wl : floats;
  mutable sl : floats;
  slot : float array; (* the one-float query result *)
}

let empty () =
  {
    cap = 0;
    size = 0;
    nodes = 0;
    pooled = 0;
    rank_value = no_floats;
    wpre = no_floats;
    spre = no_floats;
    rk = no_ints;
    w = no_floats;
    s = no_floats;
    node = no_ints;
    down = no_ints;
    wl = no_floats;
    sl = no_floats;
    slot = [| 0. |];
  }

let ceil_log2 k =
  let rec go d = if 1 lsl d >= k then d else go (d + 1) in
  go 0

(* Room for [k] positions.  With R <= k ranks the tree has at most
   2R - 1 nodes and depth ceil(log2 R); each element sits in one node per
   level down to its leaf, and each node's pools take one extra entry. *)
let reserve t k =
  if k > t.cap then begin
    let pool = (k * (ceil_log2 k + 1)) + (2 * k) in
    t.rank_value <- floats k;
    t.wpre <- floats (k + 1);
    t.spre <- floats (k + 1);
    t.rk <- ints (2 * k);
    t.w <- floats (2 * k);
    t.s <- floats (2 * k);
    t.node <- ints (stride * ((2 * k) - 1));
    t.down <- ints pool;
    t.wl <- floats pool;
    t.sl <- floats pool;
    t.cap <- k
  end

(* In-place ascending heapsort of [a.{0 .. n-1}], written as loops over
   unboxed locals.  Values that compare equal (only -0. and 0. among
   non-NaN floats) land in either order; the dedup below keeps one. *)
let sift_down (a : floats) root stop =
  let x = A.unsafe_get a root in
  let i = ref root and sinking = ref true in
  while !sinking do
    let c = (2 * !i) + 1 in
    if c >= stop then sinking := false
    else begin
      let c =
        if c + 1 < stop && A.unsafe_get a (c + 1) > A.unsafe_get a c then
          c + 1
        else c
      in
      if A.unsafe_get a c > x then begin
        A.unsafe_set a !i (A.unsafe_get a c);
        i := c
      end
      else sinking := false
    end
  done;
  A.unsafe_set a !i x

let heapsort (a : floats) n =
  for root = (n / 2) - 1 downto 0 do
    sift_down a root n
  done;
  for stop = n - 1 downto 1 do
    let top = A.unsafe_get a 0 in
    A.unsafe_set a 0 (A.unsafe_get a stop);
    A.unsafe_set a stop top;
    sift_down a 0 stop
  done

(* Append a node to the table, handing it the next [len + 1] pool
   entries: bases follow the breadth-first order of the table, so a
   parent knows its children's bases when it fills its own pools. *)
let append_node t ~rlo ~rhi ~off ~len =
  let id = t.nodes and base = t.pooled in
  let at = id * stride and node = t.node in
  A.unsafe_set node (at + s_rlo) rlo;
  A.unsafe_set node (at + s_base) base;
  A.unsafe_set node (at + s_rhi) rhi;
  A.unsafe_set node (at + s_off) off;
  A.unsafe_set node (at + s_len) len;
  t.nodes <- id + 1;
  t.pooled <- base + len + 1

(* One level of the build: nodes [first, last) read their elements from
   the level buffers' [src] half, write their pools, and (internal
   nodes) partition their elements stably into the [dst] half — left
   ranks first, at the node's own offset — appending their two children
   to the table.
   An internal node's entry i holds [lbase + c_i], the pool position of
   local index c_i in its left child, c_i the number of its first i
   elements that go left; the same position in the right child is
   [shift + (base + i) - (lbase + c_i)], with [shift = rbase + lbase -
   base] kept in the node.  A descent thus steps between pool positions
   without adding bases on its critical path. *)
let split_level t ~src ~dst ~first ~last =
  let node = t.node and down = t.down and wl = t.wl and sl = t.sl in
  let rk = t.rk and w = t.w and s = t.s in
  for id = first to last - 1 do
    let at = id * stride in
    let rlo = A.unsafe_get node (at + s_rlo) in
    let base = A.unsafe_get node (at + s_base) in
    let rhi = A.unsafe_get node (at + s_rhi) in
    let off = A.unsafe_get node (at + s_off) in
    let len = A.unsafe_get node (at + s_len) in
    A.unsafe_set wl base 0.;
    A.unsafe_set sl base 0.;
    if rhi - rlo = 1 then begin
      A.unsafe_set node (at + s_left) (-1);
      for e = 0 to len - 1 do
        let p = base + e and x = src + off + e in
        A.unsafe_set wl (p + 1) (A.unsafe_get wl p +. A.unsafe_get w x);
        A.unsafe_set sl (p + 1) (A.unsafe_get sl p +. A.unsafe_get s x)
      done
    end
    else begin
      let mid = rlo + ((rhi - rlo) / 2) in
      let nl = ref 0 in
      for x = src + off to src + off + len - 1 do
        if A.unsafe_get rk x < mid then incr nl
      done;
      let nl = !nl in
      let left = t.nodes in
      append_node t ~rlo ~rhi:mid ~off ~len:nl;
      append_node t ~rlo:mid ~rhi ~off:(off + nl) ~len:(len - nl);
      let lbase = A.unsafe_get node ((left * stride) + s_base) in
      let rbase = lbase + nl + 1 in
      A.unsafe_set node (at + s_left) left;
      A.unsafe_set node (at + s_shift) (rbase + lbase - base);
      A.unsafe_set down base lbase;
      let il = ref (dst + off) and ir = ref (dst + off + nl) in
      for e = 0 to len - 1 do
        let p = base + e and x = src + off + e in
        let r = A.unsafe_get rk x in
        let wx = A.unsafe_get w x and sx = A.unsafe_get s x in
        let goes_left = r < mid in
        let y = if goes_left then !il else !ir in
        A.unsafe_set rk y r;
        A.unsafe_set w y wx;
        A.unsafe_set s y sx;
        if goes_left then begin
          A.unsafe_set down (p + 1) (A.unsafe_get down p + 1);
          A.unsafe_set wl (p + 1) (A.unsafe_get wl p +. wx);
          A.unsafe_set sl (p + 1) (A.unsafe_get sl p +. sx);
          incr il
        end
        else begin
          A.unsafe_set down (p + 1) (A.unsafe_get down p);
          A.unsafe_set wl (p + 1) (A.unsafe_get wl p);
          A.unsafe_set sl (p + 1) (A.unsafe_get sl p);
          incr ir
        end
      done
    end
  done

let[@histolint.hot] rebuild t ~(values : floats) ~(weights : floats) ~len:k =
  if k <= 0 then invalid_arg "Rank_index.rebuild: empty input";
  if A.dim values < k || A.dim weights < k then
    invalid_arg "Rank_index.rebuild: inputs shorter than len";
  for i = 0 to k - 1 do
    if Float.is_nan (A.unsafe_get values i) then
      invalid_arg "Rank_index.rebuild: NaN value";
    if not (A.unsafe_get weights i >= 0.) then
      invalid_arg "Rank_index.rebuild: negative or NaN weight"
  done;
  (reserve t k
   [@histolint.alloc_ok
     "grows the tables on the first build of a larger K; every later \
      build up to that K reuses them"]);
  (* Distinct sorted values -> dense ranks. *)
  let rank_value = t.rank_value in
  for i = 0 to k - 1 do
    A.unsafe_set rank_value i (A.unsafe_get values i)
  done;
  heapsort rank_value k;
  let nranks = ref 1 in
  for i = 1 to k - 1 do
    let v = A.unsafe_get rank_value i in
    if v > A.unsafe_get rank_value (!nranks - 1) then begin
      A.unsafe_set rank_value !nranks v;
      incr nranks
    end
  done;
  let nranks = !nranks in
  (* The root's elements: each position's rank (a lower-bound search
     over the distinct values), weight and weight*value, in order. *)
  let rk = t.rk and w = t.w and s = t.s in
  let wpre = t.wpre and spre = t.spre in
  A.unsafe_set wpre 0 0.;
  A.unsafe_set spre 0 0.;
  for i = 0 to k - 1 do
    let v = A.unsafe_get values i and wi = A.unsafe_get weights i in
    let lo = ref 0 and hi = ref nranks in
    while !lo < !hi do
      let m = (!lo + !hi) lsr 1 in
      if A.unsafe_get rank_value m < v then lo := m + 1 else hi := m
    done;
    let wv = wi *. v in
    A.unsafe_set rk i !lo;
    A.unsafe_set w i wi;
    A.unsafe_set s i wv;
    A.unsafe_set wpre (i + 1) (A.unsafe_get wpre i +. wi);
    A.unsafe_set spre (i + 1) (A.unsafe_get spre i +. wv)
  done;
  t.nodes <- 0;
  t.pooled <- 0;
  append_node t ~rlo:0 ~rhi:nranks ~off:0 ~len:k;
  (* Level d reads the buffers' half at offset (d mod 2)·k. *)
  let first = ref 0 and src = ref 0 in
  while !first < t.nodes do
    let last = t.nodes in
    split_level t ~src:!src ~dst:(k - !src) ~first:!first ~last;
    first := last;
    src := k - !src
  done;
  t.size <- k

let create ~values ~weights =
  let k = Array.length values in
  if Array.length weights <> k then
    invalid_arg "Rank_index.create: values/weights length mismatch";
  let t = empty () in
  rebuild t
    ~values:(A.of_array Bigarray.float64 Bigarray.c_layout values)
    ~weights:(A.of_array Bigarray.float64 Bigarray.c_layout weights)
    ~len:k;
  t

let check_range t ~lo ~hi =
  if lo < 0 || hi > t.size || lo >= hi then
    invalid_arg "Rank_index: empty or out-of-range segment"

(* One descent serves both queries; the DP issues O(K log K) of them per
   layer.  It is a loop over local refs, not a recursion: without flambda
   every float argument of a call is boxed, while a float ref that never
   escapes stays unboxed.  The answer goes into [slot.(0)], not a float
   return, which would be boxed across the module boundary, so a query
   allocates nothing.  [acc_w]/[acc_s] are the range weight and
   weight*value at ranks strictly below the current subtree, so the
   closed form is available at the leaf. *)
let[@histolint.hot] descend t ~lo ~hi ~median =
  check_range t ~lo ~hi;
  let wpre = t.wpre and spre = t.spre in
  let w_tot = A.unsafe_get wpre hi -. A.unsafe_get wpre lo in
  if not (w_tot > 0.) then t.slot.(0) <- (if median then nan else 0.)
  else begin
    let node = t.node and down = t.down and wl = t.wl and sl = t.sl in
    let s_tot = A.unsafe_get spre hi -. A.unsafe_get spre lo in
    let half = w_tot /. 2. in
    (* The root's pool starts at 0, so local positions are pool positions. *)
    let at = ref 0 and pa = ref lo and pb = ref hi in
    let acc_w = ref 0. and acc_s = ref 0. in
    let left = ref (A.unsafe_get node s_left) in
    while !left >= 0 do
      let pa0 = !pa and pb0 = !pb in
      let wleft = A.unsafe_get wl pb0 -. A.unsafe_get wl pa0 in
      if !acc_w +. wleft >= half then begin
        at := !left * stride;
        pa := A.unsafe_get down pa0;
        pb := A.unsafe_get down pb0
      end
      else begin
        let shift = A.unsafe_get node (!at + s_shift) in
        at := (!left + 1) * stride;
        pa := shift + pa0 - A.unsafe_get down pa0;
        pb := shift + pb0 - A.unsafe_get down pb0;
        acc_w := !acc_w +. wleft;
        acc_s := !acc_s +. (A.unsafe_get sl pb0 -. A.unsafe_get sl pa0)
      end;
      left := A.unsafe_get node (!at + s_left)
    done;
    let m = A.unsafe_get t.rank_value (A.unsafe_get node (!at + s_rlo)) in
    let w_le = !acc_w +. (A.unsafe_get wl !pb -. A.unsafe_get wl !pa) in
    let s_le = !acc_s +. (A.unsafe_get sl !pb -. A.unsafe_get sl !pa) in
    let c = (2. *. ((m *. w_le) -. s_le)) +. (s_tot -. (m *. w_tot)) in
    (* Clamp the rounding residue of an exact fit to a clean zero. *)
    t.slot.(0) <- (if median then m else if c > 0. then c else 0.)
  end

let slot t = t.slot
let[@histolint.hot] seg_cost_into t ~lo ~hi = descend t ~lo ~hi ~median:false

let seg_cost t ~lo ~hi =
  descend t ~lo ~hi ~median:false;
  t.slot.(0)

let seg_median t ~lo ~hi =
  descend t ~lo ~hi ~median:true;
  t.slot.(0)

let seg_weight t ~lo ~hi =
  check_range t ~lo ~hi;
  A.unsafe_get t.wpre hi -. A.unsafe_get t.wpre lo

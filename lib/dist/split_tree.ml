(* Static balanced interval tree over a pmf for direct multinomial
   count-vector generation by recursive binomial splitting.

   Layout: the domain is padded to the next power of two [width] and the
   tree is an implicit heap — node 1 is the root, node [i]'s children are
   [2i] and [2i+1], leaf [j] lives at [width + j]; padding leaves carry
   mass 0.  Each internal node splits with probability
   [p_left(i) = mass(2i) / mass(i)], from subtree masses summed bottom-up
   in floats.  Like an alias table the tree is immutable after [of_pmf]
   and can be shared read-only across trials and domains; only the
   generator passed to the draw functions is mutated.

   Sampling [draw_counts t rng m] walks the tree top-down: a node holding
   [c] balls sends [Binomial(c, p_left)] of them left and the rest
   right.  Zero-count and zero-mass subtrees are never entered (the
   binomial's p = 0 / p = 1 closed forms consume no randomness), so a
   draw visits O(s·log(width/s)) branching nodes for s occupied leaves —
   independent of m, which is the whole point: the per-trial cost of a
   tester stops scaling with its sample budget.

   Split probabilities: a node's mass is the rounded float sum of its
   children's masses, so [mass(i) >= mass(2i)] always holds and the
   ratio lands in [0, 1] by IEEE rounding alone — no clamping needed.
   A zero-mass node is never entered with a positive count (its parent's
   split toward it is exactly 0 or 1), so its entry is never read; it is
   set to 0.

   Only the splits that are not one half are stored.  A node whose 2^h
   leaves all hold the same float v has bottom-up mass v·2^h exactly:
   every step adds two equal floats, which only doubles.  Its children's
   masses are therefore equal and its split is exactly 0.5 (or its mass
   is 0 and it is never entered).  A node can split otherwise only if
   its leaf range straddles a change of value: p(j-1) ≠ p(j) for two of
   its leaves, or the padding boundary at n when p(n-1) ≠ 0.  Those
   nodes are the common ancestors of the two leaves beside a change, at
   most log₂ width of them per change, so a pmf with B changes stores at
   most B·log₂ width splits: K log(n) floats for a K-piece histogram.
   Every other node reads slot 0, which holds 0.5 — the same float the
   division gives, so every draw is the one the dense table gave
   ([Refkit.Split_tree_dense], pinned bit for bit in the test suite).

   [index] holds one int per 32 nodes: bits 0-31 are their "stored"
   mask, the bits above count the stored nodes of all earlier words, so
   a stored node's slot is 1 + that count + the stored nodes below it in
   its word.  When more than half the internal nodes are stored (a dense
   pmf such as zipf) the tree stores all of them, at their heap index,
   and keeps no index: a draw then does no lookup.  With the lookup, a
   zipf draw at n = 2^16, m = 5·10⁷ read 15 % slower (median of 20
   interleaved runs, 2-vCPU host).

   Both arrays live outside the OCaml heap, in Bigarrays: the major GC
   sizes its heap as a multiple of the live words, so a heap-resident
   table cost more than twice its own size in resident set (DESIGN.md
   "Trials without samples"). *)

type table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type index = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  width : int;
  dense : bool;  (** every internal node has a slot: its heap index *)
  index : index;  (** empty when [dense] *)
  p_left : table;
  stored : int;
}

let next_pow2 n =
  let rec go w = if w >= n then w else go (2 * w) in
  go 1

let rec log2 w = if w <= 1 then 0 else 1 + log2 (w / 2)

let[@inline] popcount32 x =
  let x = x - ((x lsr 1) land 0x5555_5555) in
  let x = (x land 0x3333_3333) + ((x lsr 2) land 0x3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F in
  ((x * 0x0101_0101) lsr 24) land 0xFF

let mask = 0xFFFF_FFFF

(* [a <> b] on a pmf's finite entries, as two inline comparisons:
   [Float.equal] goes through [compare], a C call per entry, which took
   40 % longer over a 2^16-entry pmf. *)
let[@inline] differ (a : float) b = a < b || a > b

(* [node]'s slot in [p_left]: its heap index when dense, else 0 for a
   split of one half and the rank among the stored nodes plus one. *)
let[@inline] slot t node =
  if t.dense then node
  else
    let w = t.index.{node lsr 5} and b = node land 31 in
    if (w lsr b) land 1 = 0 then 0
    else 1 + (w lsr 32) + popcount32 (w land ((1 lsl b) - 1))

(* Marks the nodes that straddle a change between leaves [j - 1] and
   [j]: their lowest common ancestor — leaf [j]'s node with its trailing
   zero bits and one more shifted out — and every node above it, up to
   the first one already marked.  Returns how many it marked. *)
let mark (index : index) ~width j =
  let node = ref (width + j) in
  while !node land 1 = 0 do
    node := !node lsr 1
  done;
  node := !node lsr 1;
  let marked = ref 0 in
  while !node >= 1 && (index.{!node lsr 5} lsr (!node land 31)) land 1 = 0 do
    index.{!node lsr 5} <- index.{!node lsr 5} lor (1 lsl (!node land 31));
    incr marked;
    node := !node lsr 1
  done;
  !marked

(* Calls [f node] on every stored node at depth [d] (nodes 2^d ..
   2^(d+1) - 1), skipping the index words with none. *)
let iter_level t d f =
  let lo = 1 lsl d and hi = (2 lsl d) - 1 in
  for w = lo lsr 5 to hi lsr 5 do
    let m = ref (t.index.{w} land mask) in
    while !m <> 0 do
      let low = !m land - !m in
      let node = (w lsl 5) lor popcount32 (low - 1) in
      if node >= lo && node <= hi then f node;
      m := !m lxor low
    done
  done

(* Mass of node [c] at height [h] (0 for a leaf), once the masses of the
   stored nodes below it are in their slots: a node without a slot has
   2^h leaves of one value, so its mass is that value times 2^h, the
   float the bottom-up sum gives. *)
let[@inline] mass t p c h =
  let s = if h = 0 then 0 else slot t c in
  if s > 0 then t.p_left.{s}
  else
    let j = (c lsl h) - t.width in
    let v = if j < t.n then p.(j) else 0. in
    v *. float_of_int (1 lsl h)

(* Leaf [j]'s mass: p(j), 0 in the padding. *)
let[@inline] leaf p n j = if j < n then Array.unsafe_get p j else 0.

(* Every node's split at its heap index, in three passes: bottom-up,
   [a.{i}] takes node [i]'s subtree mass (the children of nodes
   [half .. width-1] are leaves, read from [p], 0 past [n]); top-down,
   each mass is replaced by the node's split, a node before its
   children, whose masses are still in place.  Indices stay inside
   [1, width) and [p]'s are checked against [n], so the accesses are
   unchecked. *)
let dense_splits t p =
  let module A = Bigarray.Array1 in
  let a = t.p_left and n = t.n and width = t.width in
  let half = width / 2 in
  for i = width - 1 downto max half 1 do
    let j = (2 * i) - width in
    A.unsafe_set a i (leaf p n j +. leaf p n (j + 1))
  done;
  for i = half - 1 downto 1 do
    A.unsafe_set a i (A.unsafe_get a (2 * i) +. A.unsafe_get a ((2 * i) + 1))
  done;
  for i = 1 to half - 1 do
    let m = A.unsafe_get a i in
    A.unsafe_set a i (if m > 0. then A.unsafe_get a (2 * i) /. m else 0.)
  done;
  for i = max half 1 to width - 1 do
    let m = A.unsafe_get a i in
    A.unsafe_set a i (if m > 0. then leaf p n ((2 * i) - width) /. m else 0.)
  done

(* The stored nodes' splits, level by level: bottom-up, each slot takes
   its node's subtree mass; top-down, each mass is replaced by the
   node's split, a node before its children, whose masses are still in
   place. *)
let sparse_splits t p ~depth =
  for d = depth - 1 downto 0 do
    let h = depth - d - 1 in
    iter_level t d (fun i ->
        t.p_left.{slot t i} <- mass t p (2 * i) h +. mass t p ((2 * i) + 1) h)
  done;
  for d = 0 to depth - 1 do
    let h = depth - d - 1 in
    iter_level t d (fun i ->
        let s = slot t i in
        let m = t.p_left.{s} in
        t.p_left.{s} <- (if m > 0. then mass t p (2 * i) h /. m else 0.))
  done

(* Marks every change of value at leaf [from] or after it, the padding
   boundary at [n] included when p(n-1) ≠ 0; returns how many nodes it
   marked. *)
let mark_from index p ~n ~width from =
  let stored = ref 0 in
  for j = from to n - 1 do
    if differ p.(j - 1) p.(j) then stored := !stored + mark index ~width j
  done;
  if n < width && differ p.(n - 1) 0. then
    stored := !stored + mark index ~width n;
  !stored

(* How many changes of value the first pass over the pmf marks as it
   counts them: a piecewise pmf is then read once, and a dense one marks
   no more than these before its count shows it is stored whole. *)
let eager = 256

let of_pmf pmf =
  let n = Pmf.size pmf in
  let p = Pmf.unsafe_array pmf in
  let width = next_pow2 n in
  let depth = log2 width in
  let index =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout ((width + 31) / 32)
  in
  Bigarray.Array1.fill index 0;
  (* Each change has its own lowest common ancestor, so a pmf with more
     changes than half the internal nodes is stored whole.  The first
     pass counts the changes up to that bound, marking the first [eager]
     of them; only a pmf within the bound has the rest marked, from the
     first change left unmarked ([resume]) on. *)
  let changes = ref 0 and stored = ref 0 in
  let resume = ref n and j = ref 1 in
  while !j < n && 2 * !changes <= width - 1 do
    if differ (Array.unsafe_get p (!j - 1)) (Array.unsafe_get p !j) then begin
      incr changes;
      if !changes <= eager then stored := !stored + mark index ~width !j
      else if !changes = eager + 1 then resume := !j
    end;
    incr j
  done;
  if 2 * !changes <= width - 1 then
    stored := !stored + mark_from index p ~n ~width !resume;
  let dense = 2 * max !changes !stored > width - 1 in
  if not dense then begin
    let before = ref 0 in
    for w = 0 to Bigarray.Array1.dim index - 1 do
      let m = index.{w} in
      index.{w} <- m lor (!before lsl 32);
      before := !before + popcount32 m
    done
  end;
  let stored = if dense then width - 1 else !stored in
  let t =
    {
      n;
      width;
      dense;
      index =
        (if dense then Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0
         else index);
      p_left =
        Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
          (if dense then width else stored + 1);
      stored;
    }
  in
  (* The split of every node without a slot of its own ([create] leaves
     memory as it found it). *)
  t.p_left.{0} <- 0.5;
  if dense then dense_splits t p else sparse_splits t p ~depth;
  t

let size t = t.n
let stored t = t.stored

let bytes t =
  8 * (Bigarray.Array1.dim t.p_left + Bigarray.Array1.dim t.index)

let[@histolint.hot] rec fill t rng counts node count =
  if count > 0 then
    if node >= t.width then counts.(node - t.width) <- count
    else begin
      let left = 2 * node in
      let c_left =
        Randkit.Sampler.binomial_at rng ~n:count t.p_left (slot t node)
      in
      fill t rng counts left c_left;
      fill t rng counts (left + 1) (count - c_left)
    end

let[@histolint.hot] draw_counts_into t rng ~counts m =
  if m < 0 then invalid_arg "Split_tree.draw_counts_into: negative sample count";
  if Array.length counts <> t.n then
    invalid_arg "Split_tree.draw_counts_into: counts length mismatch";
  Array.fill counts 0 t.n 0;
  fill t rng counts 1 m

let draw_counts t rng m =
  if m < 0 then invalid_arg "Split_tree.draw_counts: negative sample count";
  let counts = Array.make t.n 0 in
  fill t rng counts 1 m;
  counts

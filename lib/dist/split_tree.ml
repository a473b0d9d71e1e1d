(* Static balanced interval tree over a pmf for direct multinomial
   count-vector generation by recursive binomial splitting.

   Layout: the domain is padded to the next power of two [width] and the
   tree stored as an implicit heap — node 1 is the root, node [i]'s
   children are [2i] and [2i+1], leaf [j] lives at [width + j].  Each
   internal node holds its split probability [p_left.{i} =
   mass(2i) / mass(i)], computed once at construction from the subtree
   masses; padding leaves carry mass 0.  Leaves need no entry, so the
   tree is [width] floats.  Like an alias table the tree is immutable
   after [of_pmf] and can be shared read-only across trials and domains;
   only the generator passed to the draw functions is mutated.

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
   Dividing once at build time is the same IEEE division a draw would
   otherwise do at every visited node, so draws are bit-identical.  A zero-mass
   node is never entered with a positive count (its parent's split
   probability toward it is exactly 0 or 1), so its entry is never read;
   it is set to 0.

   The table lives outside the OCaml heap, in a Bigarray: it is the
   largest long-lived data a counts-oracle trial ensemble holds, and the
   major GC sizes its heap as a multiple of the live words, so a
   heap-resident table cost more than twice its own size in resident
   set (DESIGN.md "Trials without samples"). *)

type table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { n : int; width : int; p_left : table }

let next_pow2 n =
  let rec go w = if w >= n then w else go (2 * w) in
  go 1

let of_pmf pmf =
  let n = Pmf.size pmf in
  let p = Pmf.unsafe_array pmf in
  let width = next_pow2 n in
  (* Bottom-up, [a.(i)] holds node [i]'s subtree mass; the children of
     nodes [half .. width-1] are leaves, read from [p] (0 past [n]).
     Top-down, each mass is then replaced by the node's split
     probability: a node is rewritten before its children, whose masses
     are still in place.  Written out without a leaf helper, which would
     box a float per call. *)
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout width in
  (* Entry 0 is no node; [create] leaves memory as it found it. *)
  a.{0} <- 0.;
  let half = width / 2 in
  for i = width - 1 downto max half 1 do
    let j = (2 * i) - width in
    a.{i} <-
      (if j < n then p.(j) else 0.) +. if j + 1 < n then p.(j + 1) else 0.
  done;
  for i = half - 1 downto 1 do
    a.{i} <- a.{2 * i} +. a.{(2 * i) + 1}
  done;
  for i = 1 to width - 1 do
    let m = a.{i} in
    let left =
      if i < half then a.{2 * i}
      else
        let j = (2 * i) - width in
        if j < n then p.(j) else 0.
    in
    a.{i} <- (if m > 0. then left /. m else 0.)
  done;
  { n; width; p_left = a }

let size t = t.n

let[@histolint.hot] rec fill t rng counts node count =
  if count > 0 then
    if node >= t.width then counts.(node - t.width) <- count
    else begin
      let left = 2 * node in
      let c_left = Randkit.Sampler.binomial_at rng ~n:count t.p_left node in
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

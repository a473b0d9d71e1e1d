type table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { n : int; width : int; p_left : table }

let next_pow2 n =
  let rec go w = if w >= n then w else go (2 * w) in
  go 1

let of_pmf pmf =
  let n = Pmf.size pmf in
  let p = Pmf.unsafe_array pmf in
  let width = next_pow2 n in
  (* Bottom-up, [a.{i}] holds node [i]'s subtree mass; the children of
     nodes [half .. width-1] are leaves, read from [p] (0 past [n]).
     Top-down, each mass is then replaced by the node's split
     probability: a node is rewritten before its children, whose masses
     are still in place. *)
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout width in
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

let rec fill t rng counts node count =
  if count > 0 then
    if node >= t.width then counts.(node - t.width) <- count
    else begin
      let left = 2 * node in
      let c_left = Randkit.Sampler.binomial_at rng ~n:count t.p_left node in
      fill t rng counts left c_left;
      fill t rng counts (left + 1) (count - c_left)
    end

let draw_counts_into t rng ~counts m =
  if m < 0 then
    invalid_arg "Split_tree_dense.draw_counts_into: negative sample count";
  if Array.length counts <> t.n then
    invalid_arg "Split_tree_dense.draw_counts_into: counts length mismatch";
  Array.fill counts 0 t.n 0;
  fill t rng counts 1 m

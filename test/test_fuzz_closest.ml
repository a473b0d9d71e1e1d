(* Differential fuzz of the closest-H_k segmentation DP, promoted from the
   throwaway fuzzer that shook out the PR 5 divide-and-conquer rewrite.

   [Closest.fit_cells] (rank-index oracle + exact subquadratic search) is
   documented to return the same cost and the same starts as the dense
   Θ(K²k) reference [Refkit.Closest_dense.fit_cells], float for float, leftmost argmin on
   ties.  The adversarial generator that found real divergences during
   development: values with a 2^[-12, 12) magnitude spread to force
   rounding interplay, sorted ascending or descending to hit the
   value-monotone fast path, and weights with a 1-in-5 chance of exact
   zeros and their own 2^[-8, 8) spread.

   Every case is derived from one QCheck-drawn seed through Randkit, so a
   failure reproduces from the printed seed alone. *)

let case_of_seed seed =
  let r = Randkit.Rng.create ~seed in
  let n = 2 + Randkit.Rng.int r 41 in
  let k = 1 + Randkit.Rng.int r 8 in
  let vals =
    Array.init n (fun _ ->
        let e = Randkit.Rng.int r 24 - 12 in
        Randkit.Rng.float r 1.0 *. (2. ** float_of_int e))
  in
  Array.sort Float.compare vals;
  let vals =
    if Randkit.Rng.bool r then vals
    else Array.init n (fun i -> vals.(n - 1 - i))
  in
  let weights =
    Array.init n (fun _ ->
        if Randkit.Rng.int r 5 = 0 then 0.
        else
          let e = Randkit.Rng.int r 16 - 8 in
          Randkit.Rng.float r 1.0 *. (2. ** float_of_int e))
  in
  let cells =
    Array.init n (fun i ->
        { Closest.value = vals.(i); weight = weights.(i) })
  in
  (cells, k)

let prop_fit_cells_matches_dense =
  QCheck.Test.make ~name:"fit_cells = fit_cells_dense (cost and starts)"
    ~count:2000
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let cells, k = case_of_seed seed in
      let cf, sf = Closest.fit_cells cells ~k in
      let cd, sd = Refkit.Closest_dense.fit_cells cells ~k in
      Float.equal cf cd && List.equal Int.equal sf sd)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz_closest"
    [ ("differential", [ qc prop_fit_cells_matches_dense ]) ]

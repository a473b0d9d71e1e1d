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

(* The inputs Algorithm 1's checking step actually feeds the DP: a learned
   hypothesis, noisy around a k-piece histogram and constant on each of
   K partition cells, restricted by a sieve-style keep mask that drops
   the cells holding the true breakpoints and a few others, sometimes
   side by side.  The noise takes eight values per piece, so equal
   adjacent levels (merged runs) occur too.  Such values are not
   monotone, so this pins the row scan (descending l, [<=] keeps the
   smallest l) on its real workload. *)
let learned_case_of_seed seed =
  let r = Randkit.Rng.create ~seed in
  let k = 1 + Randkit.Rng.int r 6 in
  let kk = k + Randkit.Rng.int r 80 in
  (* Cells of 1 to 6 points: cell j ends at ends.(j). *)
  let ends = Array.make kk 0 in
  for j = 0 to kk - 1 do
    ends.(j) <- (if j = 0 then 0 else ends.(j - 1)) + 1 + Randkit.Rng.int r 6
  done;
  let n = ends.(kk - 1) in
  let part =
    Partition.of_breakpoints ~n (Array.to_list (Array.sub ends 0 (kk - 1)))
  in
  (* Cell j lies in piece (j * k / kk); the first cell of each later
     piece straddles the true breakpoint. *)
  let piece j = j * k / kk in
  let base = Array.init k (fun _ -> 1. +. float_of_int (Randkit.Rng.int r 9)) in
  let levels =
    Array.init kk (fun j ->
        base.(piece j) *. (1. +. (float_of_int (Randkit.Rng.int r 8) /. 40.)))
  in
  let keep =
    Array.init kk (fun j ->
        let straddles = j > 0 && piece j <> piece (j - 1) in
        not (straddles || Randkit.Rng.int r 10 = 0))
  in
  (Closest.cells_of_khist (Khist.make part levels) ~keep, k)

let prop_learned_matches_dense =
  QCheck.Test.make
    ~name:"fit_cells = fit_cells_dense on learned, sieve-masked cells"
    ~count:500
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let cells, k = learned_case_of_seed seed in
      let cf, sf = Closest.fit_cells cells ~k in
      let cd, sd = Refkit.Closest_dense.fit_cells cells ~k in
      Float.equal cf cd && List.equal Int.equal sf sd)

(* One scratch carried across every case — K and k grow and shrink from
   case to case, alternating between the two generators — answers what
   the dense reference answers: a fit reads nothing an earlier, larger
   fit left in the rows, the choice matrix or the index. *)
let shared = Closest.scratch ()

let prop_shared_scratch_matches_dense =
  QCheck.Test.make ~name:"one scratch across cases = fit_cells_dense"
    ~count:500
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let cells, k =
        if seed land 1 = 0 then case_of_seed seed else learned_case_of_seed seed
      in
      let cf, sf = Closest.fit_cells ~scratch:shared cells ~k in
      let cd, sd = Refkit.Closest_dense.fit_cells cells ~k in
      Float.equal cf cd && List.equal Int.equal sf sd)

(* [Closest.witness] reads each piece's level off the rank index the DP
   built; it must be the weighted median a fresh [Wmedian] computes over
   the piece's points (kept points weigh 1, masked ones nothing), bit for
   bit, with a weightless piece at level 0.  Values come from a small
   palette with a 2^[-12, 12) spread, so equal runs merge into one cell
   and several pieces share a median; about half the cases carry a keep
   mask, some of which drop whole pieces. *)
let witness_case_of_seed seed =
  let r = Randkit.Rng.create ~seed in
  let n = 2 + Randkit.Rng.int r 60 in
  let k = 1 + Randkit.Rng.int r 6 in
  let palette =
    Array.init
      (1 + Randkit.Rng.int r 5)
      (fun _ ->
        let e = Randkit.Rng.int r 24 - 12 in
        (1. +. Randkit.Rng.float r 1.0) *. (2. ** float_of_int e))
  in
  let pmf =
    Pmf.of_weights
      (Array.init n (fun _ ->
           palette.(Randkit.Rng.int r (Array.length palette))))
  in
  let mask =
    if Randkit.Rng.bool r then None
    else Some (Array.init n (fun _ -> Randkit.Rng.int r 4 <> 0))
  in
  (pmf, mask, k)

let prop_witness_levels_are_wmedians =
  QCheck.Test.make ~name:"witness levels = per-piece Wmedian (masked or not)"
    ~count:1000
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let pmf, mask, k = witness_case_of_seed seed in
      let _, h = Closest.witness ?mask pmf ~k in
      let part = Khist.partition h in
      let kept i = match mask with None -> true | Some m -> m.(i) in
      let ok = ref true in
      for j = 0 to Partition.cell_count part - 1 do
        let med = Refkit.Wmedian.create () in
        Interval.iter
          (fun i ->
            Refkit.Wmedian.add med ~value:(Pmf.get pmf i)
              ~weight:(if kept i then 1. else 0.))
          (Partition.cell part j);
        let m = Refkit.Wmedian.median med in
        let expected = if Float.is_nan m then 0. else m in
        if not (Float.equal expected (Khist.level h j)) then ok := false
      done;
      !ok)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz_closest"
    [
      ( "differential",
        [
          qc prop_fit_cells_matches_dense;
          qc prop_learned_matches_dense;
          qc prop_shared_scratch_matches_dense;
          qc prop_witness_levels_are_wmedians;
        ] );
    ]

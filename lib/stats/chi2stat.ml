type t = { z : float; per_cell : float array; m : float }

let heavy_cutoff ~eps ~n = eps /. (50. *. float_of_int n)

(* Checks the shapes and hands out the zeroed per-cell output: the
   caller's buffer, or a fresh one. *)
let output ~cell_mask ~per_cell ~counts ~n part =
  if Array.length counts <> n then
    invalid_arg "Chi2stat.compute: counts length mismatch";
  if Partition.domain_size part <> n then
    invalid_arg "Chi2stat.compute: partition domain mismatch";
  let kk = Partition.cell_count part in
  (match cell_mask with
  | Some mask when Array.length mask <> kk ->
      invalid_arg "Chi2stat.compute: cell mask length mismatch"
  | _ -> ());
  match per_cell with
  | None -> Array.make kk 0.
  | Some buf ->
      if Array.length buf <> kk then
        invalid_arg "Chi2stat.compute: per_cell length mismatch";
      Array.fill buf 0 kk 0.;
      buf

let compute ?cell_mask ?per_cell ~counts ~m ~dstar ~part ~eps () =
  let n = Pmf.size dstar in
  let per_cell = output ~cell_mask ~per_cell ~counts ~n part in
  let cutoff = heavy_cutoff ~eps ~n in
  let ds = Pmf.unsafe_array dstar in
  (* One Neumaier accumulator — a flat float pair, (sum, comp) — reused
     across cells, and one hoisted element visitor shared by every cell.
     The previous per-cell [Kahan.create] records and, worse, the boxed
     float argument of every cross-module [Kahan.add] call (n boxes per
     statistic at n = 2^16) were the harness's dominant minor-heap
     traffic; this loop allocates nothing per element or per cell while
     performing bit-identical arithmetic (same compensation, same
     element order). *)
  let acc = [| 0.; 0. |] in
  let visit i =
    let dsi = Array.unsafe_get ds i in
    (* A_eps truncation: elements where D* is tiny contribute huge
       variance for no signal; the paper drops them. *)
    if dsi >= cutoff then begin
      let expected = m *. dsi in
      let ni = float_of_int (Array.unsafe_get counts i) in
      let d = ni -. expected in
      let x = ((d *. d) -. ni) /. expected in
      let sum = Array.unsafe_get acc 0 in
      let comp = Array.unsafe_get acc 1 in
      let s = sum +. x in
      if Float.abs sum >= Float.abs x then
        Array.unsafe_set acc 1 (comp +. ((sum -. s) +. x))
      else Array.unsafe_set acc 1 (comp +. ((x -. s) +. sum));
      Array.unsafe_set acc 0 s
    end
  in
  Partition.iteri
    (fun j cell ->
      let keep =
        match cell_mask with None -> true | Some mask -> mask.(j)
      in
      if keep then begin
        acc.(0) <- 0.;
        acc.(1) <- 0.;
        Interval.iter visit cell;
        per_cell.(j) <- acc.(0) +. acc.(1)
      end)
    part;
  let z = Numkit.Kahan.sum_array per_cell in
  { z; per_cell; m }

(* [compute]'s Neumaier steps in its element order, over the common
   refinement of [part] and the hypothesis's pieces: a run is the part of
   a cell inside one piece, and what is constant on it (the level, the
   A_eps test, m*level) is read and computed once per run. *)
let compute_khist ?cell_mask ?per_cell ~counts ~m ~dstar ~part ~eps () =
  let pieces = Khist.partition dstar in
  let n = Partition.domain_size pieces in
  let per_cell = output ~cell_mask ~per_cell ~counts ~n part in
  let cutoff = heavy_cutoff ~eps ~n in
  let levels = Khist.unsafe_levels dstar in
  let p = ref 0 (* the piece holding the next run's first element *) in
  for j = 0 to Partition.cell_count part - 1 do
    let keep = match cell_mask with None -> true | Some mask -> mask.(j) in
    if keep then begin
      let cell = Partition.cell part j in
      let lo = ref (Interval.lo cell) and hi = Interval.hi cell in
      let sum = ref 0. and comp = ref 0. in
      while !lo < hi do
        while Interval.hi (Partition.cell pieces !p) <= !lo do
          incr p
        done;
        let stop = Int.min hi (Interval.hi (Partition.cell pieces !p)) in
        let level = Array.unsafe_get levels !p in
        if level >= cutoff then begin
          let expected = m *. level in
          for i = !lo to stop - 1 do
            let ni = float_of_int (Array.unsafe_get counts i) in
            let d = ni -. expected in
            let x = ((d *. d) -. ni) /. expected in
            let s = !sum +. x in
            if Float.abs !sum >= Float.abs x then
              comp := !comp +. ((!sum -. s) +. x)
            else comp := !comp +. ((x -. s) +. !sum);
            sum := s
          done
        end;
        lo := stop
      done;
      per_cell.(j) <- !sum +. !comp
    end
  done;
  { z = Numkit.Kahan.sum_array per_cell; per_cell; m }

let accept_threshold ~m ~eps = m *. eps *. eps /. 10.

let expectation ?cell_mask ~d ~dstar ~part ~eps ~m () =
  (* E[Z] = m * sum_{i in A_eps} (D(i) - D*(i))^2 / D*(i): the truncated χ²
     divergence scaled by m (Prop. 3.3 discussion). *)
  let n = Pmf.size dstar in
  let cutoff = heavy_cutoff ~eps ~n in
  let pd = Pmf.unsafe_array d and ds = Pmf.unsafe_array dstar in
  let acc = Numkit.Kahan.create () in
  Partition.iteri
    (fun j cell ->
      let keep =
        match cell_mask with None -> true | Some mask -> mask.(j)
      in
      if keep then
        Interval.iter
          (fun i ->
            if ds.(i) >= cutoff then begin
              let diff = pd.(i) -. ds.(i) in
              Numkit.Kahan.add acc (diff *. diff /. ds.(i))
            end)
          cell)
    part;
  m *. Numkit.Kahan.total acc

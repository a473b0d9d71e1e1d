type t = { part : Partition.t; levels : float array }

let make part levels =
  if Array.length levels <> Partition.cell_count part then
    invalid_arg "Khist.make: one level per cell required";
  Array.iter
    (fun v ->
      if not (Float.is_finite v) || v < 0. then
        invalid_arg "Khist.make: levels must be finite and nonnegative")
    levels;
  { part; levels = Array.copy levels }

let partition t = t.part
let levels t = Array.copy t.levels
let pieces t = Partition.cell_count t.part
let level t j = t.levels.(j)

let unsafe_levels t = t.levels

let to_pmf t = Pmf.of_pieces t.part t.levels

let breakpoints_of_pmf pmf =
  let p = Pmf.unsafe_array pmf in
  let out = ref [] in
  for i = Array.length p - 1 downto 1 do
    if Float.abs (p.(i) -. p.(i - 1)) > 0. then out := i :: !out
  done;
  !out

let pieces_of_pmf pmf = List.length (breakpoints_of_pmf pmf) + 1

let of_pmf pmf =
  let n = Pmf.size pmf in
  let part = Partition.of_breakpoints ~n (breakpoints_of_pmf pmf) in
  let levels =
    Array.init (Partition.cell_count part) (fun j ->
        Pmf.get pmf (Interval.lo (Partition.cell part j)))
  in
  { part; levels }

let breakpoint_cells pmf part =
  if Pmf.size pmf <> Partition.domain_size part then
    invalid_arg "Khist.breakpoint_cells: domain mismatch";
  let breaks = breakpoints_of_pmf pmf in
  let mask = Array.make (Partition.cell_count part) false in
  List.iter
    (fun b ->
      (* b is the index whose value differs from b-1: the cell containing b
         is a breakpoint cell unless the break falls exactly on a cell
         boundary (then the histogram is compatible with the partition
         there and no cell is contaminated). *)
      let j = Partition.find part b in
      if Interval.lo (Partition.cell part j) <> b then mask.(j) <- true)
    breaks;
  mask

let flatten_pmf pmf part =
  let levels =
    Array.init (Partition.cell_count part) (fun j ->
        let cell = Partition.cell part j in
        Pmf.mass_on pmf cell /. float_of_int (Interval.length cell))
  in
  { part; levels }


type result = {
  partition : Partition.t;
  heavy : bool array;
  samples_used : int;
}

let run ?(config = Config.default) oracle ~b =
  if b < 1 then invalid_arg "Approx_part.run: b must be at least 1";
  let n = oracle.Poissonize.n in
  let m = Config.part_samples config ~b in
  let counts = oracle.Poissonize.exact m in
  let fm = float_of_int m in
  let fb = float_of_int b in
  let freq i = float_of_int counts.(i) /. fm in
  (* An element whose true mass is >= 1/b receives >= m/b = Θ(log b)
     samples, so thresholding the empirical frequency at 3/(4b) catches it
     with high probability while keeping false positives harmless (they
     only add benign singleton cells). *)
  let heavy_threshold = 0.75 /. fb in
  let target = 1. /. fb in
  let cut_points = ref [] and heavy_cells = ref [] in
  (* Breaks are emitted ascending and never twice, so [!cuts] is the index
     of the cell that starts at the last break. *)
  let cuts = ref 0 in
  let emit_break pos =
    if pos > 0 && pos < n then begin
      cut_points := pos :: !cut_points;
      incr cuts
    end
  in
  let acc = ref 0. in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if freq i >= heavy_threshold then begin
      (* Close the running light interval, then isolate i as a singleton. *)
      if i > !start then emit_break i;
      heavy_cells := !cuts :: !heavy_cells;
      emit_break (i + 1);
      acc := 0.;
      start := i + 1
    end
    else begin
      acc := !acc +. freq i;
      (* Close once the interval holds ~1/b of the empirical mass; D(i) of
         light elements is < 1/b so the overshoot stays below 2/b. *)
      if !acc >= target && i + 1 < n then begin
        emit_break (i + 1);
        acc := 0.;
        start := i + 1
      end
    end
  done;
  let partition = Partition.of_breakpoints ~n (List.rev !cut_points) in
  let heavy = Array.make (Partition.cell_count partition) false in
  List.iter (fun j -> heavy.(j) <- true) !heavy_cells;
  { partition; heavy; samples_used = m }

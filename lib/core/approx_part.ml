type result = {
  partition : Partition.t;
  heavy : bool array;
  samples_used : int;
}

let partition ~config ws oracle ~b =
  if b < 1 then invalid_arg "Approx_part.run: b must be at least 1";
  let n = oracle.Poissonize.n in
  let m = Config.part_samples config ~b in
  let counts = oracle.Poissonize.exact m in
  let fm = float_of_int m in
  let fb = float_of_int b in
  (* An element whose true mass is >= 1/b receives >= m/b = Θ(log b)
     samples, so thresholding the empirical frequency at 3/(4b) catches it
     with high probability while keeping false positives harmless (they
     only add benign singleton cells). *)
  let heavy_threshold = 0.75 /. fb in
  let target = 1. /. fb in
  (* Breaks are emitted ascending and never twice, so [!count] is the
     index of the cell that starts at the last break; each new cell's
     heavy flag starts false.  Both buffers grow with their contents. *)
  let cuts = ref (Workspace.cuts ws ((2 * b) + 2)) in
  let heavy = ref (Workspace.heavy ws ((2 * b) + 3)) in
  let count = ref 0 in
  !heavy.(0) <- false;
  let emit_break pos =
    if pos > 0 && pos < n then begin
      if !count >= Array.length !cuts then
        cuts := Workspace.cuts ws (!count + 1);
      if !count + 1 >= Array.length !heavy then
        heavy := Workspace.heavy ws (!count + 2);
      !cuts.(!count) <- pos;
      incr count;
      !heavy.(!count) <- false
    end
  in
  let acc = ref 0. in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let freq = float_of_int counts.(i) /. fm in
    if freq >= heavy_threshold then begin
      (* Close the running light interval, then isolate i as a singleton. *)
      if i > !start then emit_break i;
      !heavy.(!count) <- true;
      emit_break (i + 1);
      acc := 0.;
      start := i + 1
    end
    else begin
      acc := !acc +. freq;
      (* Close once the interval holds ~1/b of the empirical mass; D(i) of
         light elements is < 1/b so the overshoot stays below 2/b. *)
      if !acc >= target && i + 1 < n then begin
        emit_break (i + 1);
        acc := 0.;
        start := i + 1
      end
    end
  done;
  (Partition.of_cuts ~n !cuts ~len:!count, m)

let run ?(config = Config.default) oracle ~b =
  let ws = Workspace.create () in
  let partition, samples_used = partition ~config ws oracle ~b in
  let heavy =
    Array.sub (Workspace.heavy ws 0) 0 (Partition.cell_count partition)
  in
  { partition; heavy; samples_used }

type t = {
  n : int;
  buckets : int;
  sketch : Gk.t;
  counts : int array; (* exact per-element counts kept only for totals *)
  mutable total : int;
}

let create ~n ~buckets ~eps =
  if n <= 0 then invalid_arg "Stream_hist.create: n <= 0";
  if buckets <= 0 || buckets > n then
    invalid_arg "Stream_hist.create: need 0 < buckets <= n";
  { n; buckets; sketch = Gk.create ~eps; counts = Array.make n 0; total = 0 }

let observe t x =
  if x < 0 || x >= t.n then invalid_arg "Stream_hist.observe: outside domain";
  Gk.insert t.sketch (float_of_int x);
  t.counts.(x) <- t.counts.(x) + 1;
  t.total <- t.total + 1

let total t = t.total

let current_partition t =
  if t.total = 0 then Partition.trivial ~n:t.n
  else begin
    (* Cut the domain at the sketch's approximate j/buckets quantiles. *)
    let breaks = ref [] in
    for j = 1 to t.buckets - 1 do
      let q = float_of_int j /. float_of_int t.buckets in
      let cut = int_of_float (Gk.quantile t.sketch q) + 1 in
      let cut = max 1 (min (t.n - 1) cut) in
      breaks := cut :: !breaks
    done;
    Partition.of_breakpoints ~n:t.n (List.sort_uniq Int.compare !breaks)
  end

let current_histogram t =
  if t.total = 0 then invalid_arg "Stream_hist.current_histogram: no data";
  (* Computed over the *realized* partition — when duplicate quantile
     cuts collapse (skewed data), this has fewer than [buckets] cells and
     every array below is sized accordingly, so the histogram stays
     well-formed rather than assuming [buckets] cells. *)
  let part = current_partition t in
  let cell_counts = Empirical.cell_counts part t.counts in
  let levels =
    Array.mapi
      (fun j c ->
        float_of_int c
        /. float_of_int t.total
        /. float_of_int (Interval.length (Partition.cell part j)))
      cell_counts
  in
  Khist.make part levels

let sketch_size t = Gk.summary_size t.sketch

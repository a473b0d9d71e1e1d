(* Mergeable sufficient statistics for sharded identity testing.

   The chi-square statistic of Prop. 3.3 is a function of the final
   per-element occurrence counts alone, and integer counts add exactly —
   so the sufficient statistic a shard must ship is its count vector, and
   "testing at scale" reduces to merging count vectors and recomputing the
   statistic from the merged state.  That is the determinism contract the
   histotestd service and the E20 gate pin: any merge topology over any
   sharding of a stream yields bit-identical verdicts, because the
   verdict-relevant state is integral.

   Alongside the counts we keep per-cell Neumaier pairs of accumulated
   observation *weight* (for weighted ingest and per-cell mass
   diagnostics).  Those merge by error-free two-sum — the merge step
   itself commits no rounding — but remain floats, so their exact bits
   depend on how observations were grouped into shards; nothing
   verdict-relevant reads them. *)

type t = {
  part : Partition.t;
  cell_of : int array;
      (* element -> cell index, precomputed: observe is the service's
         per-value hot path, and an O(1) table lookup replaces the
         O(log K) Partition.find with the identical index *)
  counts : int array; (* per-element occurrence counts *)
  cell_counts : int array;
  mutable total : int;
  mass_sum : float array; (* per-cell Neumaier weight accumulators *)
  mass_comp : float array;
  scratch : int array;
      (* per-cell counts staged by observe_sub; always zeroed on return.
         States are single-owner (one domain at a time), so no races. *)
}

(* An all-zero state over [part] reading the given element -> cell table.
   The table is a function of the partition alone and never written after
   [create] builds it, so sibling states share one copy. *)
let zero_state ~part ~cell_of =
  let kk = Partition.cell_count part in
  {
    part;
    cell_of;
    counts = Array.make (Array.length cell_of) 0;
    cell_counts = Array.make kk 0;
    total = 0;
    mass_sum = Array.make kk 0.;
    mass_comp = Array.make kk 0.;
    scratch = Array.make kk 0;
  }

let create ~part =
  let cell_of = Array.make (Partition.domain_size part) 0 in
  Partition.iteri
    (fun j cell -> Interval.iter (fun i -> cell_of.(i) <- j) cell)
    part;
  zero_state ~part ~cell_of

let empty_like t = zero_state ~part:t.part ~cell_of:t.cell_of

let[@histolint.hot] clear t =
  let n = Array.length t.counts and kk = Array.length t.cell_counts in
  Array.fill t.counts 0 n 0;
  Array.fill t.cell_counts 0 kk 0;
  t.total <- 0;
  Array.fill t.mass_sum 0 kk 0.;
  Array.fill t.mass_comp 0 kk 0.

let partition t = t.part
let domain_size t = Partition.domain_size t.part
let cell_count t = Partition.cell_count t.part
let total t = t.total
let counts t = t.counts
let count t x = t.counts.(x)
let cell_count_of t j = t.cell_counts.(j)
let cell_mass t j = t.mass_sum.(j) +. t.mass_comp.(j)

let[@histolint.hot] add_weight t j w =
  let sum = t.mass_sum.(j) in
  let s = sum +. w in
  if Float.abs sum >= Float.abs w then
    t.mass_comp.(j) <- t.mass_comp.(j) +. ((sum -. s) +. w)
  else t.mass_comp.(j) <- t.mass_comp.(j) +. ((w -. s) +. sum);
  t.mass_sum.(j) <- s

let[@histolint.hot] observe ?(weight = 1.) t x =
  if x < 0 || x >= domain_size t then
    invalid_arg "Suffstat.observe: outside domain";
  t.counts.(x) <- t.counts.(x) + 1;
  t.total <- t.total + 1;
  let j = t.cell_of.(x) in
  t.cell_counts.(j) <- t.cell_counts.(j) + 1;
  add_weight t j weight

(* Batched unit-weight ingest, the serve hot path.  Per-value work is
   integer-only with unchecked accesses (every index is validated against
   the domain first); the unit weights are added per cell at the end.
   Grouping the weight adds is bit-identical to one [add_weight] per
   value: all intermediate sums are exact integers below 2^53, so every
   two-sum is error-free and the compensation terms are exactly 0.0
   either way.  Out-of-domain elements raise [observe]'s error at the
   offending element with the prefix fully ingested, matching the
   element-at-a-time semantics the service's error responses pin. *)
let[@histolint.hot] observe_sub t xs ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length xs then
    invalid_arg "Suffstat.observe_sub: slice outside array";
  let n = Array.length t.counts in
  let kk = Array.length t.cell_counts in
  let added = t.scratch in
  let counts = t.counts and cell_of = t.cell_of in
  let bad = ref false in
  let done_ = ref 0 in
  (try
     for i = pos to pos + len - 1 do
       let x = Array.unsafe_get xs i in
       if x < 0 || x >= n then begin
         bad := true;
         done_ := i - pos;
         raise Exit
       end;
       Array.unsafe_set counts x (Array.unsafe_get counts x + 1);
       let j = Array.unsafe_get cell_of x in
       Array.unsafe_set added j (Array.unsafe_get added j + 1)
     done;
     done_ := len
   with Exit -> ());
  t.total <- t.total + !done_;
  for j = 0 to kk - 1 do
    let c = added.(j) in
    if c > 0 then begin
      t.cell_counts.(j) <- t.cell_counts.(j) + c;
      add_weight t j (float_of_int c);
      added.(j) <- 0
    end
  done;
  if !bad then invalid_arg "Suffstat.observe: outside domain"

let observe_all t xs = observe_sub t xs ~pos:0 ~len:(Array.length xs)

(* Validate the whole vector before touching the state: a rejected
   request must leave the shard exactly as it was, never with some cells'
   counts added and [total] not yet updated. *)
let observe_counts t counts =
  if Array.length counts <> domain_size t then
    invalid_arg "Suffstat.observe_counts: counts length mismatch";
  if Array.exists (fun c -> c < 0) counts then
    invalid_arg "Suffstat.observe_counts: negative count";
  Partition.iteri
    (fun j cell ->
      let cell_total = ref 0 in
      Interval.iter
        (fun i ->
          let c = counts.(i) in
          t.counts.(i) <- t.counts.(i) + c;
          cell_total := !cell_total + c)
        cell;
      t.cell_counts.(j) <- t.cell_counts.(j) + !cell_total;
      t.total <- t.total + !cell_total;
      add_weight t j (float_of_int !cell_total))
    t.part

let fits t part =
  t.part == part
  || Partition.domain_size t.part = Partition.domain_size part
     && List.equal Int.equal (Partition.breakpoints t.part)
          (Partition.breakpoints part)

(* The one merge loop.  States built by [empty_like] share their table,
   so the physical check settles the common case without building the
   breakpoint lists.  Counts add exactly; the cell-mass principal sums
   merge by error-free two-sum and the compensations add. *)
let[@histolint.hot] merge_into ~into src =
  if
    not
      (into.cell_of == src.cell_of
      || (fits into src.part
         [@histolint.alloc_ok
           "states from independent [create] calls compare breakpoint \
            lists; [empty_like] siblings take the physical-equality \
            branch"]))
  then invalid_arg "Suffstat.merge_into: partition mismatch";
  let n = Array.length into.counts and kk = Array.length into.cell_counts in
  let counts = into.counts and src_counts = src.counts in
  (* equal partitions, so equal lengths: the accesses are in bounds *)
  for i = 0 to n - 1 do
    Array.unsafe_set counts i
      (Array.unsafe_get counts i + Array.unsafe_get src_counts i)
  done;
  for j = 0 to kk - 1 do
    into.cell_counts.(j) <- into.cell_counts.(j) + src.cell_counts.(j);
    let sa = into.mass_sum.(j) and sb = src.mass_sum.(j) in
    let s = sa +. sb in
    let e =
      if Float.abs sa >= Float.abs sb then (sa -. s) +. sb
      else (sb -. s) +. sa
    in
    into.mass_sum.(j) <- s;
    into.mass_comp.(j) <- into.mass_comp.(j) +. src.mass_comp.(j) +. e
  done;
  into.total <- into.total + src.total

(* Folding [a] into a zero state copies it exactly ([0. +. s = s], and
   the two-sum error against zero is [+0.]), so [merge] agrees bit for bit
   with a [clear] + [merge_into] fold, float cell masses included. *)
let merge a b =
  if not (fits a b.part) then
    invalid_arg "Suffstat.merge: partition mismatch";
  let out = empty_like a in
  merge_into ~into:out a;
  merge_into ~into:out b;
  out

let equal a b =
  fits a b.part && a.total = b.total
  && Array.for_all2 Int.equal a.counts b.counts
  && Array.for_all2 Int.equal a.cell_counts b.cell_counts

let statistic ?m t ~dstar ~eps =
  let m = match m with Some m -> m | None -> float_of_int t.total in
  Chi2stat.compute ~counts:t.counts ~m ~dstar ~part:t.part ~eps ()

let verdict ?m t ~dstar ~eps =
  let stat = statistic ?m t ~dstar ~eps in
  let threshold = Chi2stat.accept_threshold ~m:stat.Chi2stat.m ~eps in
  if stat.Chi2stat.z <= threshold then Verdict.Accept else Verdict.Reject

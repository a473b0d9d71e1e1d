(* Mergeable sufficient statistics for sharded identity testing.

   The chi-square statistic of Prop. 3.3 is a function of the final
   per-element occurrence counts alone, and integer counts add exactly —
   so the sufficient statistic a shard must ship is its count vector, and
   "testing at scale" reduces to merging count vectors and recomputing the
   statistic from the merged state.  That is the determinism contract the
   histotestd service and the E20 gate pin: any merge topology over any
   sharding of a stream yields bit-identical verdicts, because the state
   is integral.  The partition rides along only for the statistic's
   per-cell A_eps truncation; ingest never reads it. *)

type t = {
  part : Partition.t;
  counts : int array; (* per-element occurrence counts *)
  mutable total : int;
}

let create ~part =
  { part; counts = Array.make (Partition.domain_size part) 0; total = 0 }

let empty_like t = create ~part:t.part

let[@histolint.hot] clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0

let partition t = t.part
let total t = t.total
let counts t = t.counts

(* [total] never exceeds 2^53, so the plug-in mean [float_of_int total]
   the statistic reads is exact. *)
let max_total = 1 lsl 53

(* Batched ingest, the serve hot path: one bounds-checked increment per
   value.  An out-of-domain element raises at the offending element
   with the prefix before it ingested — the element-at-a-time semantics
   the service's error responses pin. *)
let[@histolint.hot] observe_sub t xs ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length xs then
    invalid_arg "Suffstat.observe_sub: slice outside array";
  if len > max_total - t.total then
    invalid_arg "Suffstat.observe: total would exceed 2^53";
  let counts = t.counts in
  let n = Array.length counts in
  let stop = pos + len in
  let i = ref pos in
  while
    !i < stop
    &&
    let x = Array.unsafe_get xs !i in
    x >= 0 && x < n
  do
    let x = Array.unsafe_get xs !i in
    Array.unsafe_set counts x (Array.unsafe_get counts x + 1);
    incr i
  done;
  t.total <- t.total + (!i - pos);
  if !i < stop then invalid_arg "Suffstat.observe: outside domain"

let[@histolint.hot] observe t x =
  if x < 0 || x >= Array.length t.counts then
    invalid_arg "Suffstat.observe: outside domain";
  if t.total >= max_total then
    invalid_arg "Suffstat.observe: total would exceed 2^53";
  t.counts.(x) <- t.counts.(x) + 1;
  t.total <- t.total + 1

let observe_all t xs = observe_sub t xs ~pos:0 ~len:(Array.length xs)

(* Validate the whole slice before touching the state: a rejected
   request must leave the state exactly as it was.  A negative entry
   anywhere is reported first; the sum is bounded by subtracting from
   the room left under [max_total], and subtraction stops once the room
   is spent, so even entries near [max_int] cannot wrap it. *)
let[@histolint.hot] observe_counts t xs ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length xs then
    invalid_arg "Suffstat.observe_counts: slice outside array";
  if len <> Array.length t.counts then
    invalid_arg "Suffstat.observe_counts: counts length mismatch";
  let negative = ref false and room = ref (max_total - t.total) in
  for i = pos to pos + len - 1 do
    let c = Array.unsafe_get xs i in
    if c < 0 then negative := true else if !room >= 0 then room := !room - c
  done;
  if !negative then invalid_arg "Suffstat.observe_counts: negative count";
  if !room < 0 then
    invalid_arg "Suffstat.observe_counts: total would exceed 2^53";
  let counts = t.counts in
  for i = 0 to len - 1 do
    Array.unsafe_set counts i
      (Array.unsafe_get counts i + Array.unsafe_get xs (pos + i))
  done;
  t.total <- max_total - !room

let fits t part =
  t.part == part
  || Partition.domain_size t.part = Partition.domain_size part
     && List.equal Int.equal (Partition.breakpoints t.part)
          (Partition.breakpoints part)

(* The one merge loop.  States built by [empty_like] share their
   partition, so the physical check settles the common case without
   building the breakpoint lists. *)
let[@histolint.hot] merge_into ~into src =
  if
    not
      (fits into src.part
      [@histolint.alloc_ok
        "states from independent [create] calls compare breakpoint lists; \
         [empty_like] siblings take the physical-equality branch"])
  then invalid_arg "Suffstat.merge_into: partition mismatch";
  let counts = into.counts and src_counts = src.counts in
  (* equal partitions, so equal lengths: the accesses are in bounds *)
  for i = 0 to Array.length counts - 1 do
    Array.unsafe_set counts i
      (Array.unsafe_get counts i + Array.unsafe_get src_counts i)
  done;
  into.total <- into.total + src.total

let merge a b =
  let out = empty_like a in
  merge_into ~into:out a;
  merge_into ~into:out b;
  out

let equal a b =
  fits a b.part && a.total = b.total
  && Array.for_all2 Int.equal a.counts b.counts

(* A dense hypothesis is read element by element, pieces a run at a
   time; both give the same bits for the same pmf. *)
let statistic t ~dstar ~eps =
  let m = float_of_int t.total in
  match (dstar : Families.hypothesis) with
  | Dense dstar ->
      Chi2stat.compute ~counts:t.counts ~m ~dstar ~part:t.part ~eps ()
  | Pieces dstar ->
      Chi2stat.compute_khist ~counts:t.counts ~m ~dstar ~part:t.part ~eps ()

let verdict t ~dstar ~eps =
  let stat = statistic t ~dstar ~eps in
  let threshold = Chi2stat.accept_threshold ~m:stat.Chi2stat.m ~eps in
  if stat.Chi2stat.z <= threshold then Verdict.Accept else Verdict.Reject

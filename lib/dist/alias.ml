type t = { prob : float array; alias : int array }

let of_pmf pmf =
  (* Vose's stable construction: O(n) setup, O(1) per draw.  The small/large
     worklists are FIFO queues over preallocated int arrays with monotone
     head/tail cursors — the same visit order as the previous [Queue.t]
     implementation (so tables, and therefore every downstream draw stream,
     are bit-identical), but without a heap-allocated node per entry.  This
     matters because every [Harness.run_trials] call rebuilds the table for
     its PMF.  Capacity bounds: an index enters [small] at most once (small
     indices are consumed and finalized, never re-enqueued), so n slots
     suffice; [large] receives at most its initial entries plus one re-add
     per loop iteration, and there are at most n iterations (each consumes
     one small entry), so 2n slots suffice. *)
  let p = Pmf.unsafe_array pmf in
  let n = Array.length p in
  let prob = Array.make n 0. and alias = Array.make n 0 in
  let scaled = Array.map (fun x -> x *. float_of_int n) p in
  let small = Array.make (max 1 n) 0 in
  let small_head = ref 0 and small_tail = ref 0 in
  let large = Array.make (max 1 (2 * n)) 0 in
  let large_head = ref 0 and large_tail = ref 0 in
  let push_small i =
    small.(!small_tail) <- i;
    incr small_tail
  and push_large i =
    large.(!large_tail) <- i;
    incr large_tail
  in
  Array.iteri
    (fun i x -> if x < 1. then push_small i else push_large i)
    scaled;
  while !small_head < !small_tail && !large_head < !large_tail do
    let s = small.(!small_head) in
    incr small_head;
    let l = large.(!large_head) in
    incr large_head;
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
    if scaled.(l) < 1. then push_small l else push_large l
  done;
  (* Whatever remains is 1 up to rounding. *)
  for idx = !small_head to !small_tail - 1 do
    prob.(small.(idx)) <- 1.
  done;
  for idx = !large_head to !large_tail - 1 do
    prob.(large.(idx)) <- 1.
  done;
  { prob; alias }

let size t = Array.length t.prob

(* The coin of a draw: [Rng.float rng 1.] compared with [prob.(i)], with
   the float built here from its int mantissa [Rng.bits53], so no boxed
   float comes back across the library boundary (dune's dev profile stops
   [@inline] there).  The same value, so the same draws. *)
let[@inline] coin rng = float_of_int (Randkit.Rng.bits53 rng) *. 0x1p-53

let draw t rng =
  let i = Randkit.Rng.int rng (size t) in
  if coin rng < t.prob.(i) then i else t.alias.(i)

(* The batch loops below are the innermost loop of every experiment:
   millions of draws per sweep point.  They hoist the table fields out of
   the per-draw path and index unsafely (i is produced by [Rng.int n], so
   it is in bounds by construction).  The [_into] variants write into
   caller-supplied buffers — the per-trial workspaces of the parallel
   harness — and consume exactly the same generator stream as their
   allocating counterparts. *)

let fill_many t rng out m =
  let prob = t.prob and alias = t.alias in
  let n = Array.length prob in
  for j = 0 to m - 1 do
    let i = Randkit.Rng.int rng n in
    let x =
      if coin rng < Array.unsafe_get prob i then i
      else Array.unsafe_get alias i
    in
    Array.unsafe_set out j x
  done

let draw_many t rng m =
  if m < 0 then invalid_arg "Alias.draw_many: negative sample count";
  let out = Array.make m 0 in
  fill_many t rng out m;
  out

let draw_many_into t rng ~out m =
  if m < 0 then invalid_arg "Alias.draw_many_into: negative sample count";
  if Array.length out < m then
    invalid_arg "Alias.draw_many_into: buffer shorter than sample count";
  fill_many t rng out m

let accumulate_counts t rng counts m =
  let prob = t.prob and alias = t.alias in
  let n = Array.length prob in
  for _ = 1 to m do
    let i = Randkit.Rng.int rng n in
    let x =
      if coin rng < Array.unsafe_get prob i then i
      else Array.unsafe_get alias i
    in
    Array.unsafe_set counts x (Array.unsafe_get counts x + 1)
  done

let draw_counts t rng m =
  if m < 0 then invalid_arg "Alias.draw_counts: negative sample count";
  let counts = Array.make (size t) 0 in
  accumulate_counts t rng counts m;
  counts

let draw_counts_into t rng ~counts m =
  if m < 0 then invalid_arg "Alias.draw_counts_into: negative sample count";
  if Array.length counts <> size t then
    invalid_arg "Alias.draw_counts_into: counts length mismatch";
  Array.fill counts 0 (Array.length counts) 0;
  accumulate_counts t rng counts m

(* Reusable per-trial scratch buffers.  The domain-sized buffers are
   cached by exact length: the harness runs thousands of trials with the
   same domain size n and sample budget, so after the first trial on a
   domain every request is a cache hit.  The cell-sized ones are cached by
   capacity instead: a trial's cell count K moves by a cell or two from
   one trial to the next (625, 626, ...), and an exact-length cache would
   reallocate on every such move. *)

type t = {
  mutable counts : int array;
  mutable samples : int array;
  mutable per_cell : float array;
  mutable cuts : int array;
  mutable heavy : bool array;
  mutable cell_counts : int array;
  mutable levels : float array;
  mutable eligible : bool array;
  mutable medians : float array;
  mutable rows : float array array;
  mutable closest : Closest.scratch option;
}

let create () =
  {
    counts = [||];
    samples = [||];
    per_cell = [||];
    cuts = [||];
    heavy = [||];
    cell_counts = [||];
    levels = [||];
    eligible = [||];
    medians = [||];
    rows = [||];
    closest = None;
  }

let[@histolint.hot] counts t n =
  if n < 0 then invalid_arg "Workspace.counts: negative length";
  if Array.length t.counts <> n then
    t.counts <-
      (Array.make n 0
       [@histolint.alloc_ok
         "resize on first use of a new domain size; every later trial \
          on that size is a cache hit"]);
  t.counts

let[@histolint.hot] samples t m =
  if m < 0 then invalid_arg "Workspace.samples: negative length";
  if Array.length t.samples <> m then
    t.samples <-
      (Array.make m 0
       [@histolint.alloc_ok
         "resize on first use of a new sample budget; every later trial \
          on that budget is a cache hit"]);
  t.samples

(* A buffer of at least [k] entries: [buf] itself when it is long enough,
   else one of [max k (2 * length)] entries that starts with [buf]'s
   contents, so a buffer filled while it grows keeps what it holds. *)
let[@histolint.hot] grow name buf k fill =
  if k < 0 then invalid_arg ("Workspace." ^ name ^ ": negative length");
  let cap = Array.length buf in
  if cap >= k then buf
  else begin
    let b =
      (Array.make (Int.max k (2 * cap)) fill
       [@histolint.alloc_ok
         "grows past the largest cell count seen; every later trial up \
          to that size reuses it"])
    in
    Array.blit buf 0 b 0 cap;
    b
  end

let per_cell t k =
  t.per_cell <- grow "per_cell" t.per_cell k 0.;
  t.per_cell

let cuts t k =
  t.cuts <- grow "cuts" t.cuts k 0;
  t.cuts

let heavy t k =
  t.heavy <- grow "heavy" t.heavy k false;
  t.heavy

let cell_counts t k =
  t.cell_counts <- grow "cell_counts" t.cell_counts k 0;
  t.cell_counts

let levels t k =
  t.levels <- grow "levels" t.levels k 0.;
  t.levels

let eligible t k =
  t.eligible <- grow "eligible" t.eligible k false;
  t.eligible

let medians t k =
  t.medians <- grow "medians" t.medians k 0.;
  t.medians

let[@histolint.hot] rows t ~rows k =
  if rows < 0 then invalid_arg "Workspace.rows: negative row count";
  if Array.length t.rows < rows then
    t.rows <-
      (Array.init rows (fun r ->
           if r < Array.length t.rows then t.rows.(r) else [||])
       [@histolint.alloc_ok
         "grows past the largest repetition count seen; every later \
          trial up to that count reuses it"]);
  for r = 0 to rows - 1 do
    t.rows.(r) <- grow "rows" t.rows.(r) k 0.
  done;
  t.rows

let[@histolint.hot] closest t =
  match t.closest with
  | Some s -> s
  | None ->
      let s =
        (Closest.scratch ()
         [@histolint.alloc_ok
           "created on the first checking DP; every later trial reuses it"])
      in
      t.closest <-
        (Some s
         [@histolint.alloc_ok
           "created on the first checking DP; every later trial reuses it"]);
      s

(* One workspace per domain, created lazily.  Trials scheduled onto the
   same domain run strictly one after another, so they can all share it;
   this turns the per-trial buffer cost into a per-domain one. *)
let key : t Domain.DLS.key = Domain.DLS.new_key create
let domain_local () = Domain.DLS.get key

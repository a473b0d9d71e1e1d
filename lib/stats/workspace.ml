(* Reusable per-trial scratch buffers.  Buffers are cached by exact length:
   the harness runs thousands of trials with the same domain size n and the
   same partition arity, so after the first trial on a domain every request
   is a cache hit and the hot path allocates nothing. *)

type t = {
  mutable counts : int array;
  mutable samples : int array;
  mutable per_cell : float array;
  mutable closest : Closest.scratch option;
}

let create () =
  { counts = [||]; samples = [||]; per_cell = [||]; closest = None }

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

let[@histolint.hot] per_cell t k =
  if k < 0 then invalid_arg "Workspace.per_cell: negative length";
  if Array.length t.per_cell <> k then
    t.per_cell <-
      (Array.make k 0.
       [@histolint.alloc_ok
         "resize on first use of a new partition arity; every later \
          trial on that arity is a cache hit"]);
  t.per_cell

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

(* Bounded cache of built hypothesis structures.

   Reconfigure-heavy and multi-hypothesis workloads send `config`
   requests whose structures (the hypothesis Pmf, the diagnostic
   Partition) are deterministic functions of a small canonical
   fingerprint — (n, family spec, seed, cells) — yet were rebuilt from
   scratch on every request.  Both structures are immutable after
   construction (the service only ever reads them), so memoizing them is
   semantically invisible; it only removes the O(n) rebuild from the
   request path.

   Eviction is deterministic: an LRU over an assoc list in
   most-recently-used-first order (no Hashtbl, no clock).  It holds a
   working set of hypotheses, not a registry: both an entry count and
   the summed domain sizes are bounded, as an entry costs O(n) words. *)

type entry = { dstar : Pmf.t; part : Partition.t }

type t = {
  mutable entries : (string * entry) list; (* MRU first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let capacity = 16

(* Bound on the sum of the cached domain sizes: 2^23, twice the
   service's largest domain (2^22), so two largest hypotheses fit and
   serve-verdict's 4 x 2^16 working set never evicts. *)
let budget = 1 lsl 23

let create () = { entries = []; hits = 0; misses = 0; evictions = 0 }

let fingerprint ~n ~family ~seed ~cells =
  Printf.sprintf "n=%d;family=%s;seed=%d;cells=%d" n family seed cells

(* Move-to-front lookup; [None] leaves the order untouched. *)
let find t key =
  let rec go acc = function
    | [] -> None
    | ((k, e) as kv) :: rest ->
        if String.equal k key then begin
          t.entries <- kv :: List.rev_append acc rest;
          Some e
        end
        else go (kv :: acc) rest
  in
  go [] t.entries

(* Evict from the LRU end until both bounds hold; the MRU entry, just
   built, always stays. *)
let truncate t =
  let rec keep count size = function
    | [] -> []
    | ((_, e) as kv) :: rest ->
        let size = size + Partition.domain_size e.part in
        if count > 0 && (count >= capacity || size > budget) then begin
          t.evictions <- t.evictions + 1 + List.length rest;
          []
        end
        else kv :: keep (count + 1) size rest
  in
  t.entries <- keep 0 0 t.entries

let find_or_build t ~key build =
  match find t key with
  | Some e ->
      t.hits <- t.hits + 1;
      Ok e
  | None -> (
      t.misses <- t.misses + 1;
      match build () with
      | Error _ as e -> e
      | Ok entry ->
          t.entries <- (key, entry) :: t.entries;
          truncate t;
          Ok entry)

type stats = {
  size : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  {
    size = List.length t.entries;
    capacity;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }

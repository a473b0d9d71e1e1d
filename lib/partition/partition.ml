type t = { n : int; cells : Interval.t array }

let of_breakpoints ~n breaks =
  (* [breaks] are interior cut positions: cell boundaries besides 0 and n. *)
  let breaks = List.sort_uniq Int.compare breaks in
  List.iter
    (fun b ->
      if b <= 0 || b >= n then
        invalid_arg "Partition.of_breakpoints: break outside (0, n)")
    breaks;
  let bounds = Array.of_list ((0 :: breaks) @ [ n ]) in
  let cells =
    Array.init
      (Array.length bounds - 1)
      (fun i -> Interval.make ~lo:bounds.(i) ~hi:bounds.(i + 1))
  in
  { n; cells }

let trivial ~n = of_breakpoints ~n []

let equal_width ~n ~cells:count =
  if count <= 0 || count > n then
    invalid_arg "Partition.equal_width: need 0 < cells <= n";
  (* The bounds i·n/count rise by at least 1 per step (count <= n), so
     they need no sort or dedup: O(cells) words, the cell records and
     their array. *)
  {
    n;
    cells =
      Array.init count (fun i ->
          Interval.make ~lo:(i * n / count) ~hi:((i + 1) * n / count));
  }

let domain_size t = t.n
let cell_count t = Array.length t.cells
let cell t i = t.cells.(i)

let breakpoints t =
  Array.to_list t.cells
  |> List.filteri (fun i _ -> i > 0)
  |> List.map Interval.lo

let find t x =
  if x < 0 || x >= t.n then invalid_arg "Partition.find: point outside domain";
  (* Binary search on cell lower bounds. *)
  let lo = ref 0 and hi = ref (Array.length t.cells) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if Interval.lo t.cells.(mid) <= x then lo := mid else hi := mid
  done;
  !lo

let iteri f t = Array.iteri f t.cells

let restrict_mask t ~keep =
  if Array.length keep <> cell_count t then
    invalid_arg "Partition.restrict_mask: mask length mismatch";
  let mask = Array.make t.n false in
  Array.iteri
    (fun j cell -> if keep.(j) then Interval.iter (fun i -> mask.(i) <- true) cell)
    t.cells;
  mask


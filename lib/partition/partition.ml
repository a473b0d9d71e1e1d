type t = { n : int; cells : Interval.t array }

let validate n cells =
  if n < 0 then invalid_arg "Partition: negative domain size";
  let count = Array.length cells in
  if n = 0 then (if count <> 0 then invalid_arg "Partition: cells over empty domain")
  else begin
    if count = 0 then invalid_arg "Partition: no cells over nonempty domain";
    if Interval.lo cells.(0) <> 0 then
      invalid_arg "Partition: first cell must start at 0";
    if Interval.hi cells.(count - 1) <> n then
      invalid_arg "Partition: last cell must end at n";
    for i = 0 to count - 1 do
      if Interval.is_empty cells.(i) then
        invalid_arg "Partition: empty cell";
      if i > 0 && Interval.hi cells.(i - 1) <> Interval.lo cells.(i) then
        invalid_arg "Partition: cells not contiguous"
    done
  end

let make ~n cells =
  let cells = Array.of_list cells in
  validate n cells;
  { n; cells }

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
let singletons ~n = of_breakpoints ~n (List.init (max 0 (n - 1)) (fun i -> i + 1))

let equal_width ~n ~cells:count =
  if count <= 0 || count > n then
    invalid_arg "Partition.equal_width: need 0 < cells <= n";
  let breaks =
    List.init (count - 1) (fun i -> (i + 1) * n / count) |> List.sort_uniq compare
  in
  of_breakpoints ~n breaks

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

let fold f init t = Array.fold_left f init t.cells
let iteri f t = Array.iteri f t.cells

let refine a b =
  if a.n <> b.n then invalid_arg "Partition.refine: mismatched domains";
  let cuts =
    List.sort_uniq Int.compare (breakpoints a @ breakpoints b)
  in
  of_breakpoints ~n:a.n cuts

let is_refinement ~coarse ~fine =
  coarse.n = fine.n
  &&
  let coarse_breaks = breakpoints coarse and fine_breaks = breakpoints fine in
  List.for_all (fun b -> List.mem b fine_breaks) coarse_breaks

let restrict_mask t ~keep =
  if Array.length keep <> cell_count t then
    invalid_arg "Partition.restrict_mask: mask length mismatch";
  let mask = Array.make t.n false in
  Array.iteri
    (fun j cell -> if keep.(j) then Interval.iter (fun i -> mask.(i) <- true) cell)
    t.cells;
  mask


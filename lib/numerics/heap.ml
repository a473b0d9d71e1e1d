type 'a t = {
  mutable data : (float * 'a) array;
  mutable size : int;
  max_heap : bool;
}

let create ?(max_heap = false) () = { data = [||]; size = 0; max_heap }

let better t a b = if t.max_heap then a > b else a < b

let grow t filler =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let bigger = Array.make (max 16 (2 * cap)) filler in
    Array.blit t.data 0 bigger 0 cap;
    t.data <- bigger
  end

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if better t (fst t.data.(i)) (fst t.data.(parent)) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.size && better t (fst t.data.(l)) (fst t.data.(!best)) then best := l;
  if r < t.size && better t (fst t.data.(r)) (fst t.data.(!best)) then best := r;
  if !best <> i then begin
    swap t i !best;
    sift_down t !best
  end

let push t ~priority payload =
  grow t (priority, payload);
  t.data.(t.size) <- (priority, payload);
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some t.data.(0)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some top
  end

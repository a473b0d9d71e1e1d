let fit_cells (cells : Closest.cell array) ~k =
  let kk = Array.length cells in
  if kk = 0 then invalid_arg "Closest_dense.fit_cells: no cells";
  if k <= 0 then invalid_arg "Closest_dense.fit_cells: k must be positive";
  let k = min k kk in
  let idx =
    Numkit.Rank_index.create
      ~values:(Array.map (fun c -> c.Closest.value) cells)
      ~weights:(Array.map (fun c -> c.Closest.weight) cells)
  in
  let seg = Array.make_matrix kk kk 0. in
  for l = 0 to kk - 1 do
    for r = l to kk - 1 do
      seg.(l).(r) <- Numkit.Rank_index.seg_cost idx ~lo:l ~hi:(r + 1)
    done
  done;
  let dp = Array.make_matrix k kk infinity in
  let choice = Array.make_matrix k kk 0 in
  for r = 0 to kk - 1 do
    dp.(0).(r) <- seg.(0).(r)
  done;
  for j = 1 to k - 1 do
    for r = j to kk - 1 do
      for l = j to r do
        let c = dp.(j - 1).(l - 1) +. seg.(l).(r) in
        if c < dp.(j).(r) then begin
          dp.(j).(r) <- c;
          choice.(j).(r) <- l
        end
      done
    done
  done;
  let rec walk j r acc =
    if j = 0 then 0 :: acc
    else
      let l = choice.(j).(r) in
      walk (j - 1) (l - 1) (l :: acc)
  in
  (dp.(k - 1).(kk - 1), walk (k - 1) (kk - 1) [])

type direction = Up | Down

let same_direction a b =
  match (a, b) with Up, Up | Down, Down -> true | _ -> false

let direction_changes pmf =
  let p = Pmf.unsafe_array pmf in
  let changes = ref 0 in
  let last = ref None in
  for i = 1 to Array.length p - 1 do
    let d = Float.compare p.(i) p.(i - 1) in
    if d <> 0 then begin
      let dir = if d > 0 then Up else Down in
      (match !last with
      | Some prev when not (same_direction prev dir) -> incr changes
      | _ -> ());
      last := Some dir
    end
  done;
  !changes

let random_kmodal ~n ~k ~rng =
  if k < 0 || k + 1 > n then
    invalid_arg "Modal.random_kmodal: need 0 <= k < n";
  (* k+1 alternating monotone stretches over near-equal-width blocks. *)
  let part = Partition.equal_width ~n ~cells:(k + 1) in
  let w = Array.make n 0. in
  let up = ref (Randkit.Rng.bool rng) in
  Partition.iteri
    (fun _ cell ->
      let len = Interval.length cell in
      let lo_v = 0.2 +. Randkit.Rng.float rng 0.4 in
      let hi_v = lo_v +. 0.4 +. Randkit.Rng.float rng 0.6 in
      Interval.iter
        (fun i ->
          let pos = i - Interval.lo cell in
          let frac =
            if len = 1 then 0.
            else float_of_int pos /. float_of_int (len - 1)
          in
          let v =
            if !up then lo_v +. (frac *. (hi_v -. lo_v))
            else hi_v -. (frac *. (hi_v -. lo_v))
          in
          w.(i) <- v)
        cell;
      up := not !up)
    part;
  Pmf.of_weights w

(* cost_table.(l).(r): min L1 cost of a [dir]-monotone fit to values l..r
   (unit weights), by the classical max-heap slope-trimming algorithm:
   one sweep per left endpoint, each element pushed once and popped at
   most once, O(n^2 log n) total. *)
let monotone_cost_table ~dir values =
  let n = Array.length values in
  let table = Array.make_matrix n n 0. in
  for l = 0 to n - 1 do
    let heap = Numkit.Heap.create ~max_heap:true () in
    let cost = ref 0. in
    for r = l to n - 1 do
      let x = match dir with Up -> values.(r) | Down -> -.values.(r) in
      Numkit.Heap.push heap ~priority:x ();
      (match Numkit.Heap.peek heap with
      | Some (top, ()) when top > x ->
          cost := !cost +. (top -. x);
          ignore (Numkit.Heap.pop heap);
          Numkit.Heap.push heap ~priority:x ()
      | _ -> ());
      table.(l).(r) <- !cost
    done
  done;
  table

let l1_to_kmodal pmf ~k =
  if k < 0 then invalid_arg "Modal.l1_to_kmodal: negative k";
  let values = Pmf.to_array pmf in
  let n = Array.length values in
  let up = monotone_cost_table ~dir:Up values in
  let down = monotone_cost_table ~dir:Down values in
  (* dp.(s).(dir).(i): best cost of fitting the prefix ending at i (inclusive)
     with s+1 alternating monotone segments, the last one of direction dir
     (0 = Up, 1 = Down).  Segments alternate, junctions free (see mli). *)
  let segs = k + 1 in
  let dp = Array.init segs (fun _ -> Array.make_matrix 2 n infinity) in
  for i = 0 to n - 1 do
    dp.(0).(0).(i) <- up.(0).(i);
    dp.(0).(1).(i) <- down.(0).(i)
  done;
  for s = 1 to segs - 1 do
    for i = s to n - 1 do
      (* last segment is l..i for some l >= s *)
      for l = s to i do
        let prev_up = dp.(s - 1).(0).(l - 1)
        and prev_down = dp.(s - 1).(1).(l - 1) in
        let c_up = prev_down +. up.(l).(i) in
        if c_up < dp.(s).(0).(i) then dp.(s).(0).(i) <- c_up;
        let c_down = prev_up +. down.(l).(i) in
        if c_down < dp.(s).(1).(i) then dp.(s).(1).(i) <- c_down
      done
    done
  done;
  let best = ref infinity in
  for s = 0 to segs - 1 do
    for d = 0 to 1 do
      if dp.(s).(d).(n - 1) < !best then best := dp.(s).(d).(n - 1)
    done
  done;
  !best

let tv_to_kmodal pmf ~k = 0.5 *. l1_to_kmodal pmf ~k

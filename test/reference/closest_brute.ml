let l1 ?mask pmf ~k =
  (* Exhaustive search over all breakpoint placements; exponential. *)
  let n = Pmf.size pmf in
  if n > 16 then invalid_arg "Closest_brute.l1: domain too large";
  let p = Pmf.unsafe_array pmf in
  let kept i = match mask with None -> true | Some m -> m.(i) in
  let best = ref infinity in
  (* Choose up to k-1 breakpoints among positions 1..n-1. *)
  let rec go pos pieces_left breaks =
    if pos > n - 1 || pieces_left = 0 then eval (List.rev breaks)
    else begin
      go (pos + 1) pieces_left breaks;
      go (pos + 1) (pieces_left - 1) (pos :: breaks)
    end
  and eval breaks =
    let bounds = Array.of_list ((0 :: breaks) @ [ n ]) in
    let total = ref 0. in
    for b = 0 to Array.length bounds - 2 do
      let lo = bounds.(b) and hi = bounds.(b + 1) in
      let med = Numkit.Wmedian.create () in
      for i = lo to hi - 1 do
        Numkit.Wmedian.add med ~value:p.(i)
          ~weight:(if kept i then 1. else 0.)
      done;
      total := !total +. Numkit.Wmedian.cost med
    done;
    if !total < !best then best := !total
  in
  go 1 (k - 1) [];
  !best

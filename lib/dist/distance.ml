let check_sizes name a b =
  if Pmf.size a <> Pmf.size b then
    invalid_arg (name ^ ": mismatched domain sizes")

let l1 a b =
  check_sizes "Distance.l1" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  Numkit.Kahan.sum_f (Array.length pa) (fun i -> Float.abs (pa.(i) -. pb.(i)))

let tv a b = 0.5 *. l1 a b

let l2_sq a b =
  check_sizes "Distance.l2_sq" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  Numkit.Kahan.sum_f (Array.length pa) (fun i ->
      let d = pa.(i) -. pb.(i) in
      d *. d)

let chi2 a ~against:b =
  check_sizes "Distance.chi2" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  let acc = Numkit.Kahan.create () in
  let infinite = ref false in
  for i = 0 to Array.length pa - 1 do
    let d = pa.(i) -. pb.(i) in
    if pb.(i) > 0. then Numkit.Kahan.add acc (d *. d /. pb.(i))
    else if pa.(i) > 0. then infinite := true
  done;
  if !infinite then infinity else Numkit.Kahan.total acc

let hellinger a b =
  check_sizes "Distance.hellinger" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  let s =
    Numkit.Kahan.sum_f (Array.length pa) (fun i ->
        let d = sqrt pa.(i) -. sqrt pb.(i) in
        d *. d)
  in
  sqrt (0.5 *. s)

(* --- restricted variants (footnote 6 of the paper): half the l1 norm /
   the chi-square sum over the sub-domain only. --- *)

let l1_on iv a b =
  check_sizes "Distance.l1_on" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  let lo = Interval.lo iv and hi = Interval.hi iv in
  Numkit.Kahan.sum_f (hi - lo) (fun j ->
      Float.abs (pa.(lo + j) -. pb.(lo + j)))

let tv_on iv a b = 0.5 *. l1_on iv a b

let tv_mask mask a b =
  check_sizes "Distance.tv_mask" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  if Array.length mask <> Array.length pa then
    invalid_arg "Distance.tv_mask: mask length mismatch";
  0.5
  *. Numkit.Kahan.sum_f (Array.length pa) (fun i ->
         if mask.(i) then Float.abs (pa.(i) -. pb.(i)) else 0.)

let chi2_mask mask a ~against:b =
  check_sizes "Distance.chi2_mask" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  if Array.length mask <> Array.length pa then
    invalid_arg "Distance.chi2_mask: mask length mismatch";
  let acc = Numkit.Kahan.create () in
  let infinite = ref false in
  for i = 0 to Array.length pa - 1 do
    if mask.(i) then begin
      let d = pa.(i) -. pb.(i) in
      if pb.(i) > 0. then Numkit.Kahan.add acc (d *. d /. pb.(i))
      else if pa.(i) > 0. then infinite := true
    end
  done;
  if !infinite then infinity else Numkit.Kahan.total acc

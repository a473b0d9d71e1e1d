let check_sizes name a b =
  if Pmf.size a <> Pmf.size b then
    invalid_arg (name ^ ": mismatched domain sizes")

let l1 a b =
  check_sizes "Distance.l1" a b;
  let pa = Pmf.unsafe_array a and pb = Pmf.unsafe_array b in
  Numkit.Kahan.sum_f (Array.length pa) (fun i -> Float.abs (pa.(i) -. pb.(i)))

let tv a b = 0.5 *. l1 a b

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

type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.; comp = 0. }

let add t x =
  (* Neumaier's variant: robust when the running sum is smaller than [x]. *)
  let s = t.sum +. x in
  if Float.abs t.sum >= Float.abs x then t.comp <- t.comp +. ((t.sum -. s) +. x)
  else t.comp <- t.comp +. ((x -. s) +. t.sum);
  t.sum <- s

let total t = t.sum +. t.comp

let sum_array a =
  let t = create () in
  Array.iter (add t) a;
  total t

let sum_f n f =
  let t = create () in
  for i = 0 to n - 1 do
    add t (f i)
  done;
  total t

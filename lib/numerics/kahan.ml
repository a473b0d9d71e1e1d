type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.; comp = 0. }

let add t x =
  (* Neumaier's variant: robust when the running sum is smaller than [x]. *)
  let s = t.sum +. x in
  if Float.abs t.sum >= Float.abs x then t.comp <- t.comp +. ((t.sum -. s) +. x)
  else t.comp <- t.comp +. ((x -. s) +. t.sum);
  t.sum <- s

let total t = t.sum +. t.comp

(* [count] [add] steps on local float refs (see [sum_sub]): the sum of a
   run of equal terms without the array that would hold them. *)
let[@histolint.hot] add_run t x count =
  let sum = ref t.sum and comp = ref t.comp in
  for _ = 1 to count do
    let s = !sum +. x in
    if Float.abs !sum >= Float.abs x then comp := !comp +. ((!sum -. s) +. x)
    else comp := !comp +. ((x -. s) +. !sum);
    sum := s
  done;
  t.sum <- !sum;
  t.comp <- !comp

(* [add]'s step on local float refs, which the native compiler keeps
   unboxed: no accumulator record and no float boxed per element at a
   call boundary.  Same operations in the same order, so the result is
   bitwise that of an [add] fold (test_numkit pins it). *)
let[@histolint.hot] sum_sub a ~pos ~len =
  if pos < 0 || len < 0 || pos > Array.length a - len then
    invalid_arg "Kahan.sum_sub: range outside the array";
  let sum = ref 0. and comp = ref 0. in
  for i = pos to pos + len - 1 do
    let x = Array.unsafe_get a i in
    let s = !sum +. x in
    if Float.abs !sum >= Float.abs x then comp := !comp +. ((!sum -. s) +. x)
    else comp := !comp +. ((x -. s) +. !sum);
    sum := s
  done;
  !sum +. !comp

let[@histolint.hot] sum_array a = sum_sub a ~pos:0 ~len:(Array.length a)

let sum_f n f =
  let t = create () in
  for i = 0 to n - 1 do
    add t (f i)
  done;
  total t

type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.; comp = 0. }
let of_parts ~sum ~comp = { sum; comp }
let parts t = (t.sum, t.comp)

let add t x =
  (* Neumaier's variant: robust when the running sum is smaller than [x]. *)
  let s = t.sum +. x in
  if Float.abs t.sum >= Float.abs x then t.comp <- t.comp +. ((t.sum -. s) +. x)
  else t.comp <- t.comp +. ((x -. s) +. t.sum);
  t.sum <- s

let total t = t.sum +. t.comp

(* The binade of [x]: bits 52..62, the sign left out.  0 for zero and
   subnormals, 2047 for infinities and NaN. *)
let[@inline] binade x =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 52) land 0x7ff

(* A normal [x]'s significand as an integer in [2^52, 2^53): |x| is that
   many steps of its binade's grid. *)
let[@inline] significand x =
  Int64.to_int (Int64.bits_of_float x) land 0xF_FFFF_FFFF_FFFF
  lor 0x10_0000_0000_0000

let[@inline] same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* Steps of [dm] grid units (dm <> 0) that take a significand [m] no
   closer than one unit to either end of its binade. *)
let[@inline] span m dm =
  if dm > 0 then (0x1F_FFFF_FFFF_FFFF - m) / dm
  else (m - 0x10_0000_0000_0001) / -dm

(* [count] [add] steps, most of them taken a binade at a time.  Let s be
   normal in the binade [2^E, 2^(E+1)), whose grid is g = 2^(E-52).
   While the exact s + x stays inside that binade, fl(s + x) = s + d
   with d = x rounded to a multiple of g.  That d is the same for every
   s unless x lies halfway between two multiples (a tie); a tie rounds
   s + x to an even multiple, so once one step has run inside the
   binade, every later step adds the same even d.  Hence after two real
   steps that start and end in one binade, the sum may jump j steps of
   that d at once, j bounded in grid units so every exact sum stays one
   unit inside.  Two such steps also prove |x| < 2^E <= |s| (an x of
   the sum's binade or above leaves it within two steps, whatever its
   sign), so each jumped step adds the same correction, (s - s') + x =
   x - d exactly, to [comp], whose own repeated addition is
   fast-forwarded the same way.  A real step that leaves its operand
   bitwise unchanged makes the rest of the run a repeat of it.  Zero,
   subnormal and non-finite sums, sign changes and binade crossings
   take real steps.  All state lives in local float refs, which the
   native compiler keeps unboxed. *)
let[@histolint.hot] add_run t x count =
  let sum = ref t.sum and comp = ref t.comp and left = ref count in
  (* The last real step: its increment, as a float and in grid units,
     and its correction; how many real steps in a row started and ended
     in one binade; whether the step left the sum as it was. *)
  let d = ref 0. and dm = ref 0 and e = ref 0. in
  let inside = ref 0 and fixed = ref false in
  while !left > 0 do
    let j =
      if !fixed then !left
      else if !inside >= 2 then
        let j = span (significand !sum) !dm in
        if j < !left then j else !left
      else 0
    in
    if j > 0 then begin
      if not !fixed then sum := !sum +. (float_of_int j *. !d);
      left := !left - j;
      (* [j] steps of [comp +. e]: the same jumps, without a correction. *)
      let steps = ref j and cd = ref 0. and cdm = ref 0 and cin = ref 0 in
      while !steps > 0 do
        if !cin >= 2 then begin
          let k = span (significand !comp) !cdm in
          let k = if k < !steps then k else !steps in
          if k > 0 then begin
            comp := !comp +. (float_of_int k *. !cd);
            steps := !steps - k
          end
        end;
        if !steps > 0 then begin
          let c = !comp in
          let c' = c +. !e in
          if same_bits c' c then steps := 0
          else begin
            let b = binade c in
            if binade c' = b && b > 0 && b < 0x7ff then begin
              incr cin;
              cdm := significand c' - significand c;
              cd := c' -. c
            end
            else cin := 0;
            comp := c';
            decr steps
          end
        end
      done
    end;
    if !left > 0 then begin
      let s = !sum in
      let s' = s +. x in
      let err =
        if Float.abs s >= Float.abs x then (s -. s') +. x else (x -. s') +. s
      in
      comp := !comp +. err;
      sum := s';
      e := err;
      decr left;
      if same_bits s' s then fixed := true
      else begin
        let b = binade s in
        if binade s' = b && b > 0 && b < 0x7ff then begin
          incr inside;
          dm := significand s' - significand s;
          d := s' -. s
        end
        else inside := 0
      end
    end
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

let pi = 4. *. atan 1.

(* Lanczos approximation, g = 7, n = 9 coefficients.  Accurate to ~1e-13 on
   the positive reals, which is far below the statistical noise floor of any
   quantity we compute with it. *)
let lanczos_g = 7.

let lanczos_coef =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

(* The Lanczos sum for x >= 0.5.  Inlined into both of its callers, so
   [log_factorial_into] computes it on an unboxed float; the arithmetic is
   the same expression either way, so the bits are too. *)
let[@inline] lanczos x =
  let x = x -. 1. in
  let acc = ref lanczos_coef.(0) in
  for i = 1 to Array.length lanczos_coef - 1 do
    acc := !acc +. (lanczos_coef.(i) /. (x +. float_of_int i))
  done;
  let t = x +. lanczos_g +. 0.5 in
  (0.5 *. log (2. *. pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula keeps the Lanczos series in its accurate range. *)
    log (pi /. sin (pi *. x)) -. log_gamma (1. -. x)
  else lanczos x

(* Built eagerly at module initialisation, before any domain can be
   spawned: a [lazy] table forced by two domains at once raises
   [CamlinternalLazy.Undefined] in one of them. *)
let log_factorial_table_size = 1024

let log_factorial_table =
  let a = Array.make log_factorial_table_size 0. in
  for i = 2 to log_factorial_table_size - 1 do
    a.(i) <- a.(i - 1) +. log (float_of_int i)
  done;
  a

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: negative argument";
  if n < log_factorial_table_size then log_factorial_table.(n)
  else log_gamma (float_of_int n +. 1.)

let[@histolint.hot] log_factorial_into slot n =
  if n < 0 then invalid_arg "Special.log_factorial_into: negative argument";
  slot.(0) <-
    (if n < log_factorial_table_size then log_factorial_table.(n)
     else lanczos (float_of_int n +. 1.))

let log_poisson_pmf ~mean k =
  if mean < 0. then invalid_arg "Special.log_poisson_pmf: negative mean";
  if k < 0 then neg_infinity
  else if Float.equal mean 0. then if k = 0 then 0. else neg_infinity
  else (float_of_int k *. log mean) -. mean -. log_factorial k

let poisson_pmf ~mean k = exp (log_poisson_pmf ~mean k)

(* Regularized lower incomplete gamma P(a, x) by series (x < a+1) or
   continued fraction (otherwise). *)
let gamma_p a x =
  if a <= 0. then invalid_arg "Special.gamma_p: a must be positive";
  if x < 0. then invalid_arg "Special.gamma_p: x must be nonnegative";
  if Float.equal x 0. then 0.
  else if x < a +. 1. then begin
    (* Series representation. *)
    let sum = ref (1. /. a) in
    let term = ref (1. /. a) in
    let ap = ref a in
    let continue = ref true in
    while !continue do
      ap := !ap +. 1.;
      term := !term *. x /. !ap;
      sum := !sum +. !term;
      if Float.abs !term < Float.abs !sum *. 1e-15 then continue := false
    done;
    !sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)
  end
  else begin
    (* Lentz continued fraction for Q(a, x). *)
    let tiny = 1e-300 in
    let b = ref (x +. 1. -. a) in
    let c = ref (1. /. tiny) in
    let d = ref (1. /. !b) in
    let h = ref !d in
    let i = ref 1 in
    let continue = ref true in
    while !continue do
      let an = -.float_of_int !i *. (float_of_int !i -. a) in
      b := !b +. 2.;
      d := (an *. !d) +. !b;
      if Float.abs !d < tiny then d := tiny;
      c := !b +. (an /. !c);
      if Float.abs !c < tiny then c := tiny;
      d := 1. /. !d;
      let del = !d *. !c in
      h := !h *. del;
      if Float.abs (del -. 1.) < 1e-15 then continue := false;
      incr i;
      if !i > 10_000 then continue := false
    done;
    let q = exp ((-.x) +. (a *. log x) -. log_gamma a) *. !h in
    1. -. q
  end

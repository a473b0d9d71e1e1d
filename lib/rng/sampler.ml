let gaussian rng ~mu ~sigma =
  if sigma < 0. then invalid_arg "Sampler.gaussian: sigma must be nonnegative";
  (* Marsaglia polar method; one of the pair is discarded to keep the
     generator stateless. *)
  let rec draw () =
    let u = (2. *. Rng.float rng 1.) -. 1. in
    let v = (2. *. Rng.float rng 1.) -. 1. in
    let s = (u *. u) +. (v *. v) in
    if s >= 1. || Float.equal s 0. then draw ()
    else u *. sqrt (-2. *. log s /. s)
  in
  mu +. (sigma *. draw ())

(* Uniform draws for the samplers below, as the int mantissa [Rng.bits53]
   scaled here: [uniform (Rng.bits53 rng)] is [Rng.float rng 1.] bit for
   bit, but no boxed float comes back across the module boundary.  The
   loops are over local refs, not local recursive closures, so a draw
   allocates nothing. *)
let[@inline] uniform bits = float_of_int bits *. 0x1p-53

(* The rejection paths read log-factorials through a one-float slot
   owned by the calling domain: a float returned by
   [Special.log_factorial] would be boxed across the module boundary in
   dune's dev profile.  [lf slot n] is that value, unboxed. *)
let lf_slot : float array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make 1 0.)

let[@inline] lf slot n =
  Numkit.Special.log_factorial_into slot n;
  Array.unsafe_get slot 0

(* A mantissa for the open interval (0, 1) that [log] needs: resample the
   measure-zero endpoint 0. *)
let[@histolint.hot] nonzero_bits53 rng =
  let bits = ref (Rng.bits53 rng) in
  while !bits = 0 do
    bits := Rng.bits53 rng
  done;
  !bits

(* Inversion: floor(log U / log(1-p)) counts failures before success.
   Takes log(1-p) so the waiting-time core computes it once per draw. *)
let[@inline] failures_before_success rng ~log_q =
  int_of_float (floor (log (uniform (nonzero_bits53 rng)) /. log_q))

let[@histolint.hot] geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Sampler.geometric: p outside (0, 1]";
  if Float.equal p 1. then 0
  else failures_before_success rng ~log_q:(log (1. -. p))

(* Knuth's multiplication method: expected time O(mean). *)
let[@histolint.hot] poisson_small rng mean =
  let l = exp (-.mean) in
  let k = ref 0 and prod = ref (uniform (Rng.bits53 rng)) in
  while !prod > l do
    incr k;
    prod := !prod *. uniform (Rng.bits53 rng)
  done;
  !k

(* Hörmann's PTRS transformed-rejection sampler: O(1) expected time for
   large means.  Constants from "The transformed rejection method for
   generating Poisson random variables" (1993). *)
let[@histolint.hot] poisson_ptrs rng mean =
  let b = 0.931 +. (2.53 *. sqrt mean) in
  let a = -0.059 +. (0.02483 *. b) in
  let inv_alpha = 1.1239 +. (1.1328 /. (b -. 3.4)) in
  let v_r = 0.9277 -. (3.6224 /. (b -. 2.)) in
  let log_mean = log mean in
  let k = ref 0 and accepted = ref false in
  while not !accepted do
    let u = uniform (Rng.bits53 rng) -. 0.5 in
    let v = uniform (nonzero_bits53 rng) in
    let us = 0.5 -. Float.abs u in
    k := int_of_float (floor ((((2. *. a /. us) +. b) *. u) +. mean +. 0.43));
    if us >= 0.07 && v <= v_r then accepted := true
    else if !k < 0 || (us < 0.013 && v > us) then ()
    else
      accepted :=
        log (v *. inv_alpha /. ((a /. (us *. us)) +. b))
        <= (float_of_int !k *. log_mean)
           -. mean
           -. lf (Domain.DLS.get lf_slot) !k
  done;
  !k

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Sampler.poisson: negative mean";
  if Float.equal mean 0. then 0
  else if mean < 30. then poisson_small rng mean
  else poisson_ptrs rng mean

(* The binomial cores take 0 < p < 1 and n >= 1 and fold p > 1/2 onto
   1 - p themselves: n - Binomial(n, 1 - p) has the law of Binomial(n, p),
   and the folded probability stays an unboxed local instead of a fresh
   boxed argument.  Each core's draws are those of the core run at 1 - p. *)

(* Waiting-time method: skip over failures with geometric jumps; expected
   time O(n * min(p, 1 - p)), which is fast in the small-np regime (bin
   probabilities, deep splitting-tree nodes).  Each jump is a
   [geometric] draw. *)
let[@inline] [@histolint.hot] binomial_waiting_core rng ~n ~p =
  let flip = p > 0.5 in
  let p = if flip then 1. -. p else p in
  let log_q = log (1. -. p) in
  let i = ref 0 and successes = ref (-1) in
  while !i <= n do
    i := !i + failures_before_success rng ~log_q + 1;
    incr successes
  done;
  if flip then n - !successes else !successes

(* Hörmann's BTRS transformed-rejection sampler: O(1) expected time
   whatever n*p is, provided n*min(p, 1 - p) >= 10 (below that the fitted
   dominating curve is not guaranteed to dominate).  Constants from "The
   generation of binomial random variates" (1993), the binomial sibling
   of the PTRS Poisson sampler above. *)
let[@inline] [@histolint.hot] binomial_btrs_core rng ~n ~p =
  let flip = p > 0.5 in
  let p = if flip then 1. -. p else p in
  let fn = float_of_int n in
  let q = 1. -. p in
  let spq = sqrt (fn *. p *. q) in
  let b = 1.15 +. (2.53 *. spq) in
  let a = -0.0873 +. (0.0248 *. b) +. (0.01 *. p) in
  let c = (fn *. p) +. 0.5 in
  let v_r = 0.92 -. (4.2 /. b) in
  let alpha = (2.83 +. (5.1 /. b)) *. spq in
  let lpq = log (p /. q) in
  let mode = int_of_float (floor ((fn +. 1.) *. p)) in
  let k = ref 0 and accepted = ref false in
  while not !accepted do
    let u = uniform (Rng.bits53 rng) -. 0.5 in
    let v = uniform (nonzero_bits53 rng) in
    let us = 0.5 -. Float.abs u in
    k := int_of_float (floor ((((2. *. a /. us) +. b) *. u) +. c));
    if us >= 0.07 && v <= v_r then accepted := true
    else if !k < 0 || !k > n then ()
    else
      (* Only this path reads [h]; it is pure, so computing it here, not
         once up front, moves no draw. *)
      let slot = Domain.DLS.get lf_slot in
      let h = lf slot mode +. lf slot (n - mode) in
      let lf_k = lf slot !k in
      let lf_rest = lf slot (n - !k) in
      accepted :=
        log (v *. alpha /. ((a /. (us *. us)) +. b))
        <= h -. lf_k -. lf_rest +. (float_of_int (!k - mode) *. lpq)
  done;
  if flip then n - !k else !k

(* Branch cutoff on n*min(p, 1-p), pinned as a constant: the dispatch —
   and therefore every downstream draw stream — must be identical on
   every host.  10 is BTRS's validity floor. *)
let binomial_btrs_cutoff = 10.

let[@inline] [@histolint.hot] binomial_dispatch_core rng ~n ~p =
  let p_min = if p > 0.5 then 1. -. p else p in
  if float_of_int n *. p_min < binomial_btrs_cutoff then
    binomial_waiting_core rng ~n ~p
  else binomial_btrs_core rng ~n ~p

(* Shared validation and closed-form extremes: [-1] when a core must
   draw, which then only ever sees 0 < p < 1 and n >= 1; the extremes
   consume no randomness.  The [not (p >= 0. && p <= 1.)] form also
   rejects NaN, which the naive [p < 0. || p > 1.] test would let
   through.  Each entry point below calls its core directly, not through
   a function argument, so an inlined core takes p unboxed. *)
let[@inline] closed_form name ~n ~p =
  if n < 0 then invalid_arg (name ^ ": n must be nonnegative");
  if not (p >= 0. && p <= 1.) then invalid_arg (name ^ ": p outside [0, 1]");
  if n = 0 || Float.equal p 0. then 0 else if Float.equal p 1. then n else -1

(* These three receive p boxed already, so they call the cores' own
   compiled bodies instead of inlining a copy each. *)
let binomial_waiting_time rng ~n ~p =
  let c = closed_form "Sampler.binomial_waiting_time" ~n ~p in
  if c >= 0 then c else (binomial_waiting_core [@inlined never]) rng ~n ~p

let binomial_btrs rng ~n ~p =
  let c = closed_form "Sampler.binomial_btrs" ~n ~p in
  if c >= 0 then c else (binomial_btrs_core [@inlined never]) rng ~n ~p

let binomial rng ~n ~p =
  let c = closed_form "Sampler.binomial" ~n ~p in
  if c >= 0 then c else (binomial_dispatch_core [@inlined never]) rng ~n ~p

type probs = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@histolint.hot] binomial_at rng ~n (probs : probs) i =
  let p = Bigarray.Array1.get probs i in
  let c = closed_form "Sampler.binomial" ~n ~p in
  if c >= 0 then c else binomial_dispatch_core rng ~n ~p

let permutation rng n =
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let shuffle_in_place rng a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement rng ~n ~k =
  if k < 0 || k > n then
    invalid_arg "Sampler.sample_without_replacement: need 0 <= k <= n";
  (* Floyd's algorithm: O(k) expected, no O(n) allocation. *)
  let chosen = Hashtbl.create (2 * k) in
  let out = ref [] in
  for j = n - k to n - 1 do
    let t = Rng.int rng (j + 1) in
    let pick = if Hashtbl.mem chosen t then j else t in
    Hashtbl.replace chosen pick ();
    out := pick :: !out
  done;
  !out

let[@histolint.hot] zipf_weights ~n ~s =
  if n <= 0 then invalid_arg "Sampler.zipf_weights: n must be positive";
  let w = (Array.make n 0. [@histolint.alloc_ok "the result array"]) in
  for i = 0 to n - 1 do
    w.(i) <- float_of_int (i + 1) ** (-.s)
  done;
  w

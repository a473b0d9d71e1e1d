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

let geometric rng ~p =
  if p <= 0. || p > 1. then invalid_arg "Sampler.geometric: p outside (0, 1]";
  if Float.equal p 1. then 0
  else
    (* Inversion: floor(log U / log(1-p)) counts failures before success. *)
    int_of_float (floor (log (Rng.unit_open rng) /. log (1. -. p)))

(* Knuth's multiplication method: expected time O(mean). *)
let poisson_small rng mean =
  let l = exp (-.mean) in
  let rec loop k p =
    let p = p *. Rng.float rng 1. in
    if p <= l then k else loop (k + 1) p
  in
  loop 0 1.

(* Hörmann's PTRS transformed-rejection sampler: O(1) expected time for
   large means.  Constants from "The transformed rejection method for
   generating Poisson random variables" (1993). *)
let poisson_ptrs rng mean =
  let b = 0.931 +. (2.53 *. sqrt mean) in
  let a = -0.059 +. (0.02483 *. b) in
  let inv_alpha = 1.1239 +. (1.1328 /. (b -. 3.4)) in
  let v_r = 0.9277 -. (3.6224 /. (b -. 2.)) in
  let log_mean = log mean in
  let rec loop () =
    let u = Rng.float rng 1. -. 0.5 in
    let v = Rng.unit_open rng in
    let us = 0.5 -. Float.abs u in
    let k =
      int_of_float
        (floor (((2. *. a /. us) +. b) *. u +. mean +. 0.43))
    in
    if us >= 0.07 && v <= v_r then k
    else if k < 0 || (us < 0.013 && v > us) then loop ()
    else if
      log (v *. inv_alpha /. ((a /. (us *. us)) +. b))
      <= (float_of_int k *. log_mean) -. mean -. Numkit.Special.log_factorial k
    then k
    else loop ()
  in
  loop ()

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Sampler.poisson: negative mean";
  if Float.equal mean 0. then 0
  else if mean < 30. then poisson_small rng mean
  else poisson_ptrs rng mean

(* Waiting-time method: skip over failures with geometric jumps; expected
   time O(n * p), which is fast in the small-np regime (bin probabilities,
   deep splitting-tree nodes).  Requires 0 < p <= 0.5. *)
let binomial_waiting_core rng ~n ~p =
  let rec loop i successes =
    let jump = geometric rng ~p in
    let i = i + jump + 1 in
    if i > n then successes else loop i (successes + 1)
  in
  loop 0 0

(* Hörmann's BTRS transformed-rejection sampler: O(1) expected time
   whatever n*p is, provided n*p >= 10 (below that the fitted dominating
   curve is not guaranteed to dominate).  Constants from "The generation
   of binomial random variates" (1993), the binomial sibling of the PTRS
   Poisson sampler above.  Requires 0 < p <= 0.5 and n*p >= 10. *)
let binomial_btrs_core rng ~n ~p =
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
  let h =
    Numkit.Special.log_factorial mode
    +. Numkit.Special.log_factorial (n - mode)
  in
  let rec loop () =
    let u = Rng.float rng 1. -. 0.5 in
    let v = Rng.unit_open rng in
    let us = 0.5 -. Float.abs u in
    let k = int_of_float (floor (((2. *. a /. us) +. b) *. u +. c)) in
    if us >= 0.07 && v <= v_r then k
    else if k < 0 || k > n then loop ()
    else if
      log (v *. alpha /. ((a /. (us *. us)) +. b))
      <= h
         -. Numkit.Special.log_factorial k
         -. Numkit.Special.log_factorial (n - k)
         +. (float_of_int (k - mode) *. lpq)
    then k
    else loop ()
  in
  loop ()

(* Branch cutoff on n*min(p, 1-p), pinned as a constant: the dispatch —
   and therefore every downstream draw stream — must be identical on
   every host.  10 is BTRS's validity floor. *)
let binomial_btrs_cutoff = 10.

(* Shared validation and closed-form extremes; [core] only ever sees
   0 < p <= 0.5 and n >= 1, and the extremes consume no randomness.  The
   [not (p >= 0. && p <= 1.)] form also rejects NaN, which the naive
   [p < 0. || p > 1.] test would let through. *)
let binomial_checked name core rng ~n ~p =
  if n < 0 then invalid_arg (name ^ ": n must be nonnegative");
  if not (p >= 0. && p <= 1.) then invalid_arg (name ^ ": p outside [0, 1]");
  if n = 0 || Float.equal p 0. then 0
  else if Float.equal p 1. then n
  else if p > 0.5 then n - core rng ~n ~p:(1. -. p)
  else core rng ~n ~p

let binomial_waiting_time rng ~n ~p =
  binomial_checked "Sampler.binomial_waiting_time" binomial_waiting_core rng
    ~n ~p

let binomial_btrs rng ~n ~p =
  binomial_checked "Sampler.binomial_btrs" binomial_btrs_core rng ~n ~p

let binomial rng ~n ~p =
  binomial_checked "Sampler.binomial"
    (fun rng ~n ~p ->
      if float_of_int n *. p < binomial_btrs_cutoff then
        binomial_waiting_core rng ~n ~p
      else binomial_btrs_core rng ~n ~p)
    rng ~n ~p

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

type t = { prevalences : (int * int) list; samples : int }

(* Deterministic by construction: sort the positive counts and
   run-length encode, instead of tallying into a Hashtbl whose
   iteration order is hash-bucket order (histolint: det/hashtbl-order). *)
let of_counts counts =
  let samples = ref 0 in
  let npos = ref 0 in
  Array.iter
    (fun c ->
      samples := !samples + c;
      if c > 0 then incr npos)
    counts;
  let pos = Array.make !npos 0 in
  let j = ref 0 in
  Array.iter
    (fun c ->
      if c > 0 then begin
        pos.(!j) <- c;
        incr j
      end)
    counts;
  Array.sort Int.compare pos;
  let prevalences = ref [] in
  let i = ref (!npos - 1) in
  while !i >= 0 do
    let m = pos.(!i) in
    let run_end = ref !i in
    while !run_end >= 0 && pos.(!run_end) = m do
      decr run_end
    done;
    prevalences := (m, !i - !run_end) :: !prevalences;
    i := !run_end
  done;
  { prevalences = !prevalences; samples = !samples }

let samples t = t.samples
let prevalence t mult =
  Option.value ~default:0 (List.assoc_opt mult t.prevalences)

let distinct t =
  List.fold_left (fun acc (_, c) -> acc + c) 0 t.prevalences

let collisions t =
  List.fold_left (fun acc (m, c) -> acc + (c * (m * (m - 1) / 2))) 0
    t.prevalences

let singletons t = prevalence t 1

(* --- plug-in and bias-corrected estimators --- *)

let l2_norm_sq_estimate t =
  (* Unbiased for ||D||_2^2 under iid sampling: collisions / C(m, 2). *)
  let m = float_of_int t.samples in
  if t.samples < 2 then nan
  else float_of_int (collisions t) /. (m *. (m -. 1.) /. 2.)

let good_turing_missing_mass t =
  (* Good-Turing: the probability mass of unseen elements is ~ F1/m. *)
  if t.samples = 0 then 1.
  else float_of_int (singletons t) /. float_of_int t.samples

let chao1_support_estimate t =
  (* Chao's 1984 lower-bound estimator: distinct + F1^2 / (2 F2). *)
  let f1 = float_of_int (singletons t) in
  let f2 = float_of_int (prevalence t 2) in
  let base = float_of_int (distinct t) in
  if f2 > 0. then base +. (f1 *. f1 /. (2. *. f2))
  else base +. (f1 *. (f1 -. 1.) /. 2.)

let entropy_plugin counts =
  let total = float_of_int (Array.fold_left ( + ) 0 counts) in
  if total <= 0. then nan
  else
    let acc = Numkit.Kahan.create () in
    Array.iter
      (fun c ->
        if c > 0 then begin
          let p = float_of_int c /. total in
          Numkit.Kahan.add acc (-.p *. log p)
        end)
      counts;
    Numkit.Kahan.total acc

let entropy_miller_madow counts =
  (* Plug-in plus the Miller-Madow first-order bias correction
     (distinct - 1) / (2 m). *)
  let total = Array.fold_left ( + ) 0 counts in
  let d = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 counts in
  if total = 0 then nan
  else
    entropy_plugin counts
    +. (float_of_int (d - 1) /. (2. *. float_of_int total))

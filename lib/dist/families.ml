(* Every dense builder fills one fresh n-float array with unboxed loops
   and hands it to [Pmf.create] or [Pmf.of_weights], which take
   ownership: the pmf costs that array and no boxed float (DESIGN.md
   "Set-up").  Piecewise families are built as their cells and levels,
   and their pmf is that histogram's expansion. *)

type hypothesis = Dense of Pmf.t | Pieces of Khist.t

let fresh n = (Array.make n 0. [@histolint.alloc_ok "the pmf's one array"])

(* Weight [weights.(j)] on every element of cell [j], normalized as
   [Pmf.of_weights] normalizes the expansion: the total is the Neumaier
   sum of the n implicit weights in element order, taken a run at a
   time, so each level is bitwise the [w.(i) /. total] it computes —
   without an n-array, and in O(K log n) time for K cells, since
   [Kahan.add_run] takes a run's steps a binade at a time. *)
let pieces part weights =
  let acc = Numkit.Kahan.create () in
  for j = 0 to Partition.cell_count part - 1 do
    Numkit.Kahan.add_run acc weights.(j)
      (Interval.length (Partition.cell part j))
  done;
  let total = Numkit.Kahan.total acc in
  Khist.make part (Array.map (fun w -> w /. total) weights)

let uniform_pieces n =
  if n <= 0 then invalid_arg "Pmf.uniform: n must be positive";
  Khist.make (Partition.trivial ~n) [| 1. /. float_of_int n |]

let zipf ~n ~s = Pmf.of_weights (Randkit.Sampler.zipf_weights ~n ~s)

let[@histolint.hot] geometric_like ~n ~ratio =
  if ratio <= 0. || ratio >= 1. then
    invalid_arg "Families.geometric_like: ratio must lie in (0, 1)";
  let w = fresh n in
  for i = 0 to n - 1 do
    w.(i) <- ratio ** float_of_int i
  done;
  Pmf.of_weights w

let staircase_pieces ~n ~k ~rng =
  if k < 1 || k > n then invalid_arg "Families.staircase: need 1 <= k <= n";
  (* k equal-width steps with random positive levels: an exactly-k-piece
     histogram whenever adjacent levels differ, which holds almost surely. *)
  let part = Partition.equal_width ~n ~cells:k in
  pieces part (Array.init k (fun _ -> 0.1 +. Randkit.Rng.float rng 1.))

let staircase ~n ~k ~rng = Khist.to_pmf (staircase_pieces ~n ~k ~rng)

let random_khist_pieces ~n ~k ~rng =
  if k < 1 || k > n then invalid_arg "Families.random_khist: need 1 <= k <= n";
  let breaks =
    Randkit.Sampler.sample_without_replacement rng ~n:(n - 1) ~k:(k - 1)
    |> List.map (fun b -> b + 1)
  in
  let part = Partition.of_breakpoints ~n breaks in
  pieces part
    (Array.init (Partition.cell_count part) (fun _ ->
         0.05 +. Randkit.Rng.float rng 1.))

let random_khist ~n ~k ~rng = Khist.to_pmf (random_khist_pieces ~n ~k ~rng)

let paninski ~n ~eps ~c ~rng =
  if n mod 2 <> 0 then invalid_arg "Families.paninski: n must be even";
  let delta = c *. eps /. float_of_int n in
  if delta >= 1. /. float_of_int n then
    invalid_arg "Families.paninski: c * eps must be below 1";
  let p = Array.make n 0. in
  for i = 0 to (n / 2) - 1 do
    let base = 1. /. float_of_int n in
    (* z_i = 0 or 1 flips which of the pair is heavier. *)
    let sign = if Randkit.Rng.bool rng then 1. else -1. in
    p.(2 * i) <- base +. (sign *. delta);
    p.((2 * i) + 1) <- base -. (sign *. delta)
  done;
  Pmf.create p

let mixture components =
  match components with
  | [] -> invalid_arg "Families.mixture: no components"
  | (_, d0) :: rest ->
      let n = Pmf.size d0 in
      List.iter
        (fun (_, d) ->
          if Pmf.size d <> n then
            invalid_arg "Families.mixture: mismatched domains")
        rest;
      let total =
        List.fold_left (fun acc (w, _) -> acc +. w) 0. components
      in
      if total <= 0. then invalid_arg "Families.mixture: zero total weight";
      let out = Array.make n 0. in
      List.iter
        (fun (w, d) ->
          if w < 0. then invalid_arg "Families.mixture: negative weight";
          let p = Pmf.unsafe_array d in
          for i = 0 to n - 1 do
            out.(i) <- out.(i) +. (w /. total *. p.(i))
          done)
        components;
      Pmf.create out

let spiked ~n ~spikes ~spike_mass ~rng =
  if spikes < 0 || spikes > n then
    invalid_arg "Families.spiked: need 0 <= spikes <= n";
  if spike_mass < 0. || spike_mass > 1. then
    invalid_arg "Families.spiked: spike_mass outside [0, 1]";
  let w = Array.make n ((1. -. spike_mass) /. float_of_int n) in
  let where = Randkit.Sampler.sample_without_replacement rng ~n ~k:spikes in
  List.iter
    (fun i -> w.(i) <- w.(i) +. (spike_mass /. float_of_int spikes))
    where;
  Pmf.of_weights w

let comb_pieces ~n ~teeth =
  if teeth < 1 || 2 * teeth > n then
    invalid_arg "Families.comb: need 1 <= teeth <= n/2";
  (* Alternating high/low blocks: a (2*teeth)-histogram that is far from any
     histogram with noticeably fewer pieces.  The last block takes the
     remainder of n. *)
  let block = n / (2 * teeth) in
  let part =
    Partition.of_breakpoints ~n
      (List.init ((2 * teeth) - 1) (fun b -> (b + 1) * block))
  in
  pieces part (Array.init (2 * teeth) (fun b -> if b mod 2 = 0 then 3. else 1.))

let comb ~n ~teeth = Khist.to_pmf (comb_pieces ~n ~teeth)

let[@histolint.hot] discretized_gaussian ~n ~mu ~sigma =
  if sigma <= 0. then
    invalid_arg "Families.discretized_gaussian: sigma must be positive";
  let w = fresh n in
  for i = 0 to n - 1 do
    let x = float_of_int i in
    w.(i) <- exp (-.((x -. mu) ** 2.) /. (2. *. sigma *. sigma))
  done;
  Pmf.of_weights w

let bimodal ~n =
  let g1 = discretized_gaussian ~n ~mu:(float_of_int n /. 4.) ~sigma:(float_of_int n /. 16.) in
  let g2 = discretized_gaussian ~n ~mu:(3. *. float_of_int n /. 4.) ~sigma:(float_of_int n /. 16.) in
  mixture [ (0.6, g1); (0.4, g2) ]

let[@histolint.hot] monotone_decreasing ~n ~power =
  if power < 0. then invalid_arg "Families.monotone_decreasing: negative power";
  let w = fresh n in
  for i = 0 to n - 1 do
    w.(i) <- (1. /. float_of_int (i + 1)) ** power
  done;
  Pmf.of_weights w

let hypothesis_of_spec ~n ~rng spec =
  let num = float_of_string and int = int_of_string in
  let dense pmf = Some (Dense pmf) and piecewise h = Some (Pieces h) in
  match
    match String.split_on_char ':' spec with
    | [ "uniform" ] -> piecewise (uniform_pieces n)
    | [ "staircase"; k ] -> piecewise (staircase_pieces ~n ~k:(int k) ~rng)
    | [ "khist"; k ] -> piecewise (random_khist_pieces ~n ~k:(int k) ~rng)
    | [ "zipf"; s ] -> dense (zipf ~n ~s:(num s))
    | [ "geometric"; r ] -> dense (geometric_like ~n ~ratio:(num r))
    | [ "comb"; teeth ] -> piecewise (comb_pieces ~n ~teeth:(int teeth))
    | [ "bimodal" ] -> dense (bimodal ~n)
    | [ "paninski"; eps ] -> dense (paninski ~n ~eps:(num eps) ~c:6. ~rng)
    | [ "spiked"; s ] -> dense (spiked ~n ~spikes:(int s) ~spike_mass:0.5 ~rng)
    | [ "monotone"; p ] -> dense (monotone_decreasing ~n ~power:(num p))
    | _ -> None
  with
  | Some h -> Ok h
  | None ->
      Error
        (Printf.sprintf
           "unknown family %S (try uniform, staircase:K, khist:K, zipf:S, \
            geometric:R, comb:T, bimodal, paninski:EPS, spiked:S, monotone:P)"
           spec)
  | exception Failure _ ->
      Error (Printf.sprintf "bad numeric parameter in family %S" spec)
  | exception Invalid_argument msg -> Error msg

let of_spec ~n ~rng spec =
  Result.map
    (function Dense pmf -> pmf | Pieces h -> Khist.to_pmf h)
    (hypothesis_of_spec ~n ~rng spec)

let uniform = Pmf.uniform

let zipf ~n ~s = Pmf.of_weights (Randkit.Sampler.zipf_weights ~n ~s)

let geometric_like ~n ~ratio =
  if ratio <= 0. || ratio >= 1. then
    invalid_arg "Families.geometric_like: ratio must lie in (0, 1)";
  Pmf.of_weights (Array.init n (fun i -> ratio ** float_of_int i))

let staircase ~n ~k ~rng =
  if k < 1 || k > n then invalid_arg "Families.staircase: need 1 <= k <= n";
  (* k equal-width steps with random positive levels: an exactly-k-piece
     histogram whenever adjacent levels differ, which holds almost surely. *)
  let part = Partition.equal_width ~n ~cells:k in
  let levels = Array.init k (fun _ -> 0.1 +. Randkit.Rng.float rng 1.) in
  let w = Array.make n 0. in
  Partition.iteri
    (fun j cell -> Interval.iter (fun i -> w.(i) <- levels.(j)) cell)
    part;
  Pmf.of_weights w

let random_khist ~n ~k ~rng =
  if k < 1 || k > n then invalid_arg "Families.random_khist: need 1 <= k <= n";
  let breaks =
    Randkit.Sampler.sample_without_replacement rng ~n:(n - 1) ~k:(k - 1)
    |> List.map (fun b -> b + 1)
  in
  let part = Partition.of_breakpoints ~n breaks in
  let w = Array.make n 0. in
  Partition.iteri
    (fun _ cell ->
      let level = 0.05 +. Randkit.Rng.float rng 1. in
      Interval.iter (fun i -> w.(i) <- level) cell)
    part;
  Pmf.of_weights w

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

let comb ~n ~teeth =
  if teeth < 1 || 2 * teeth > n then
    invalid_arg "Families.comb: need 1 <= teeth <= n/2";
  (* Alternating high/low blocks: a (2*teeth)-histogram that is far from any
     histogram with noticeably fewer pieces. *)
  let block = n / (2 * teeth) in
  let w =
    Array.init n (fun i ->
        let b = min (i / block) ((2 * teeth) - 1) in
        if b mod 2 = 0 then 3. else 1.)
  in
  Pmf.of_weights w

let discretized_gaussian ~n ~mu ~sigma =
  if sigma <= 0. then
    invalid_arg "Families.discretized_gaussian: sigma must be positive";
  let w =
    Array.init n (fun i ->
        let x = float_of_int i in
        exp (-.((x -. mu) ** 2.) /. (2. *. sigma *. sigma)))
  in
  Pmf.of_weights w

let bimodal ~n =
  let g1 = discretized_gaussian ~n ~mu:(float_of_int n /. 4.) ~sigma:(float_of_int n /. 16.) in
  let g2 = discretized_gaussian ~n ~mu:(3. *. float_of_int n /. 4.) ~sigma:(float_of_int n /. 16.) in
  mixture [ (0.6, g1); (0.4, g2) ]

let monotone_decreasing ~n ~power =
  if power < 0. then invalid_arg "Families.monotone_decreasing: negative power";
  Pmf.of_weights (Array.init n (fun i -> (1. /. float_of_int (i + 1)) ** power))

let of_spec ~n ~rng spec =
  let num = float_of_string and int = int_of_string in
  match
    match String.split_on_char ':' spec with
    | [ "uniform" ] -> Some (uniform n)
    | [ "staircase"; k ] -> Some (staircase ~n ~k:(int k) ~rng)
    | [ "khist"; k ] -> Some (random_khist ~n ~k:(int k) ~rng)
    | [ "zipf"; s ] -> Some (zipf ~n ~s:(num s))
    | [ "geometric"; r ] -> Some (geometric_like ~n ~ratio:(num r))
    | [ "comb"; teeth ] -> Some (comb ~n ~teeth:(int teeth))
    | [ "bimodal" ] -> Some (bimodal ~n)
    | [ "paninski"; eps ] -> Some (paninski ~n ~eps:(num eps) ~c:6. ~rng)
    | [ "spiked"; s ] -> Some (spiked ~n ~spikes:(int s) ~spike_mass:0.5 ~rng)
    | [ "monotone"; p ] -> Some (monotone_decreasing ~n ~power:(num p))
    | _ -> None
  with
  | Some pmf -> Ok pmf
  | None ->
      Error
        (Printf.sprintf
           "unknown family %S (try uniform, staircase:K, khist:K, zipf:S, \
            geometric:R, comb:T, bimodal, paninski:EPS, spiked:S, monotone:P)"
           spec)
  | exception Failure _ ->
      Error (Printf.sprintf "bad numeric parameter in family %S" spec)
  | exception Invalid_argument msg -> Error msg

let uniform_ranges ~n ~count ~rng =
  List.init count (fun _ ->
      let a = Randkit.Rng.int rng n in
      let b = Randkit.Rng.int rng n in
      let lo = min a b and hi = max a b + 1 in
      Interval.make ~lo ~hi)

let data_centered_ranges ~pmf ~width ~count ~rng =
  (* Ranges centered on sampled data points: heavy regions get queried
     more, like a workload driven by actual key lookups. *)
  let n = Pmf.size pmf in
  if width <= 0 || width > n then
    invalid_arg "Workload.data_centered_ranges: need 0 < width <= n";
  let alias = Alias.of_pmf pmf in
  List.init count (fun _ ->
      let center = Alias.draw alias rng in
      let lo = max 0 (min (n - width) (center - (width / 2))) in
      Interval.make ~lo ~hi:(lo + width))

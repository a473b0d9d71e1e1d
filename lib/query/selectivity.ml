let true_range pmf iv = Pmf.mass_on pmf iv

let estimate_range khist iv =
  let part = Khist.partition khist in
  let n = Partition.domain_size part in
  if Interval.lo iv < 0 || Interval.hi iv > n then
    invalid_arg "Selectivity.estimate_range: query outside domain";
  (* Histogram estimate: each bucket contributes level * |overlap| — the
     uniform-spread assumption inside buckets, exact since levels are
     per-element. *)
  let acc = Numkit.Kahan.create () in
  Partition.iteri
    (fun j cell ->
      match Interval.intersect cell iv with
      | None -> ()
      | Some overlap ->
          Numkit.Kahan.add acc
            (Khist.level khist j *. float_of_int (Interval.length overlap)))
    part;
  Numkit.Kahan.total acc

let absolute_error pmf khist iv =
  Float.abs (true_range pmf iv -. estimate_range khist iv)

let relative_error pmf khist iv =
  let truth = true_range pmf iv in
  if truth <= 0. then
    if estimate_range khist iv <= 0. then 0. else infinity
  else absolute_error pmf khist iv /. truth

type report = {
  mean_abs : float;
  max_abs : float;
  mean_rel : float;
  queries : int;
}

let evaluate pmf khist queries =
  (match queries with
  | [] -> invalid_arg "Selectivity.evaluate: no queries"
  | _ :: _ -> ());
  let abs_errors = List.map (absolute_error pmf khist) queries in
  let rel_errors =
    List.filter_map
      (fun q ->
        let r = relative_error pmf khist q in
        if Float.is_finite r then Some r else None)
      queries
  in
  let arr = Array.of_list abs_errors in
  {
    mean_abs = Numkit.Summary.mean_of arr;
    max_abs = Array.fold_left Float.max 0. arr;
    mean_rel =
      (match rel_errors with
      | [] -> nan
      | _ :: _ -> Numkit.Summary.mean_of (Array.of_list rel_errors));
    queries = List.length queries;
  }

(* Comparing two sets of runs of the benchmark, metric by metric and
   workload by workload, under BENCHMARK.json's bounds.

   A is the parent (baseline), B the change; run i of A is paired with
   run i of B of the same workload.  The rules:
   - improved: B wins at least 9 in 10 pairs (ties count for neither) and
     the medians differ, in B's favour, by more than A's quartile spread;
   - unresolved: otherwise, if either side's quartile spread is wider than
     its tolerance, unless every run of B reads better than every run of A;
   - regressed: otherwise, if B's median is worse than A's by more than
     A's tolerance;
   - unchanged: everything else.
   A side's tolerance is the bound as a share of its median, or the
   metric's absolute floor when that is larger. *)

type status = Improved | Unchanged | Regressed | Unresolved

let status_to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type row = {
  a : float * float * float;  (** q1, median, q3 *)
  b : float * float * float;
  won : float;  (** share of pairs B won *)
  status : status;
}

(* BENCHMARK.json holds relative bounds; set-up time also has an absolute
   floor, because a set-up that moves by less than 5 ms is not a change a
   user waits for, while the host moves its ~4 ms by a quarter. *)
let floors = [ ("setup_s", 0.005) ]

let judge ~(better : Spec.better) ~bound ?(floor = 0.) a b =
  let ((q1a, ma, q3a) as qa) = Quantile.quartiles a in
  let ((_, mb, _) as qb) = Quantile.quartiles b in
  (* positive when y is better than x *)
  let gain x y = match better with Spec.Higher -> y -. x | Spec.Lower -> x -. y in
  let pairs = min (Array.length a) (Array.length b) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if gain a.(i) b.(i) > 0. then incr wins
  done;
  let won = float_of_int !wins /. float_of_int (max 1 pairs) in
  let tolerance m = Float.max (bound *. Float.abs m) floor in
  let wide (q1, m, q3) = q3 -. q1 > tolerance m in
  let all_better =
    Array.for_all (fun y -> Array.for_all (fun x -> gain x y > 0.) a) b
  in
  let status =
    if won >= 0.9 && gain ma mb > q3a -. q1a then Improved
    else if (wide qa || wide qb) && not all_better then Unresolved
    else if -.gain ma mb > tolerance ma then Regressed
    else Unchanged
  in
  { a = qa; b = qb; won; status }

(* Run records: the JSON line each run prints before its result line,
   carrying the workload and the result.  Other lines are skipped. *)
let records path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter_map (fun line ->
         match Jsonl.parse line with
         | Ok j -> (
             match
               (Option.bind (Jsonl.member "workload" j) Jsonl.to_str, Jsonl.member "result" j)
             with
             | Some w, Some r -> Some (w, r)
             | _ -> None)
         | Error _ -> None)

let values recs ~workload ~metric =
  List.filter_map
    (fun (w, r) ->
      if String.equal w workload then
        Option.bind (Jsonl.member "metrics" r) (fun ms ->
            Option.bind (Jsonl.member metric ms) (fun m ->
                Option.bind (Jsonl.member "value" m) Jsonl.to_float))
      else None)
    recs
  |> Array.of_list

(* Print one row per (workload, end-to-end metric) found on both sides;
   false when any row regressed or is unresolved. *)
let main ~bench ~a ~b =
  let ra = records a and rb = records b in
  Printf.printf "%-14s %-24s %-34s %-34s %5s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "won" "status";
  let fine = ref true in
  List.iter
    (fun workload ->
      List.iter
        (fun ((m : Spec.metric), bound) ->
          let va = values ra ~workload ~metric:m.Spec.name in
          let vb = values rb ~workload ~metric:m.Spec.name in
          if Array.length va > 0 && Array.length vb > 0 then begin
            let floor = Option.value (List.assoc_opt m.Spec.name floors) ~default:0. in
            let r = judge ~better:m.Spec.better ~bound ~floor va vb in
            let show (q1, med, q3) = Printf.sprintf "%.6g [%.6g, %.6g]" med q1 q3 in
            Printf.printf "%-14s %-24s %-34s %-34s %5.2f  %s\n" workload m.Spec.name
              (show r.a) (show r.b) r.won (status_to_string r.status);
            match r.status with
            | Regressed | Unresolved -> fine := false
            | Improved | Unchanged -> ()
          end)
        bench.Spec.end_to_end)
    bench.Spec.workloads;
  !fine

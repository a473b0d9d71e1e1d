(* BENCHMARK.json, the one table of what the benchmark measures: its
   workloads and, for each metric, its name, unit, direction and (end to
   end) regression bound.  A run prints the metrics it names, [compare]
   judges by its bounds, and the unit tests check it with [problems]. *)

type better = Higher | Lower

type metric = { name : string; unit_ : string; better : better }

type t = {
  workloads : string list;
  end_to_end : (metric * float) list;  (** with its bound *)
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field key j =
  Option.to_result ~none:(Printf.sprintf "missing key %S" key) (Jsonl.member key j)

let str key j =
  let* v = field key j in
  Option.to_result ~none:(Printf.sprintf "%S is not a string" key) (Jsonl.to_str v)

let all f key j =
  let* v = field key j in
  let* xs = Option.to_result ~none:(Printf.sprintf "%S is not a list" key) (Jsonl.to_list v) in
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let metric_of j =
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* better =
    match str "better" j with
    | Ok "higher" -> Ok Higher
    | Ok "lower" -> Ok Lower
    | _ -> Error (name ^ ": \"better\" is neither \"higher\" nor \"lower\"")
  in
  Ok { name; unit_; better }

let parse text =
  let* j = Jsonl.parse text in
  let* workloads = all (str "name") "workloads" j in
  let* end_to_end =
    all
      (fun e ->
        let* m = metric_of e in
        let* b = field "bound" e in
        let* bound =
          Option.to_result ~none:(m.name ^ ": bound is not a number") (Jsonl.to_float b)
        in
        Ok (m, bound))
      "end_to_end" j
  in
  let* per_layer = all metric_of "per_layer" j in
  Ok { workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let valid_name s =
  let alnum = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false in
  String.length s >= 1
  && String.length s <= 64
  && alnum s.[0]
  && String.for_all (fun c -> alnum c || c = '_' || c = '.' || c = '-') s

(* Everything wrong with [b], [] when there is nothing. *)
let problems b =
  let count what n lo hi =
    if n < lo || n > hi then [ Printf.sprintf "%d %s (want %d to %d)" n what lo hi ] else []
  in
  let names =
    b.workloads
    @ List.map (fun (m, _) -> m.name) b.end_to_end
    @ List.map (fun m -> m.name) b.per_layer
  in
  count "workloads" (List.length b.workloads) 2 8
  @ count "end-to-end metrics" (List.length b.end_to_end) 1 16
  @ count "per-layer metrics" (List.length b.per_layer) 1 128
  @ List.filter_map
      (fun n -> if valid_name n then None else Some (Printf.sprintf "bad name %S" n))
      names

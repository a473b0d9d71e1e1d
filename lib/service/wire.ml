(* Request decoding and the success-response tree for the histotestd
   line protocol: one JSON object per line in, one per line out. *)

type request =
  | Config of {
      n : int;
      family : string;
      eps : float;
      cells : int option;
      seed : int;
    }
  | Observe of { shard : string; xs : int array }
  | Counts of { shard : string; counts : int array }
  | Verdict
  | Stats
  | Cache_stats
  | Reset
  | Quit

let field name conv json =
  match Jsonl.member name json with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad value for field %S" name))

let opt_field name conv ~default json =
  match Jsonl.member name json with
  | None -> Ok default
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad value for field %S" name))

let ( let* ) r f = Result.bind r f

let request_of_json json =
  let* cmd = field "cmd" Jsonl.to_str json in
  match cmd with
  | "config" ->
      let* n = field "n" Jsonl.to_int json in
      let* family = field "family" Jsonl.to_str json in
      let* eps = field "eps" Jsonl.to_float json in
      let* cells =
        opt_field "cells" (fun v -> Option.map Option.some (Jsonl.to_int v))
          ~default:None json
      in
      let* seed = opt_field "seed" Jsonl.to_int ~default:1 json in
      Ok (Config { n; family; eps; cells; seed })
  | "observe" ->
      let* shard = field "shard" Jsonl.to_str json in
      let* xs = field "xs" Jsonl.to_int_array json in
      Ok (Observe { shard; xs })
  | "counts" ->
      let* shard = field "shard" Jsonl.to_str json in
      let* counts = field "counts" Jsonl.to_int_array json in
      Ok (Counts { shard; counts })
  | "verdict" -> Ok Verdict
  | "stats" -> Ok Stats
  | "cache_stats" -> Ok Cache_stats
  | "reset" -> Ok Reset
  | "quit" -> Ok Quit
  | other -> Error (Printf.sprintf "unknown cmd %S" other)

let request_of_line line =
  match Jsonl.parse line with
  | Error msg -> Error ("parse error: " ^ msg)
  | Ok json -> request_of_json json

let ok fields = Jsonl.Obj (("ok", Jsonl.Bool true) :: fields)

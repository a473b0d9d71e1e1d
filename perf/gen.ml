(* Seeded inputs.  The observed values and the trial generators are
   functions of the benchmark seed; the hypotheses are part of the
   workload and fixed, because their shape sets the cache locality of
   ingest (a staircase with one heavy step keeps most increments in a few
   cache lines): with seeded hypotheses, two seeds measured two different
   workloads.  The daemon receives only the rendered lines. *)

let n = 65536
let eps = 0.25
let family = "staircase:8"

(* The hypotheses serve-verdict's reader cycles through, [family] first. *)
let verdict_families = [| family; "khist:8"; "zipf:1.2"; "monotone:1.5" |]

(* Independent generators per purpose, fixed by the seed alone. *)
let rng ~seed purpose = Randkit.Rng.create ~seed:((seed * 64) + purpose)

(* The seed every `config` carries. *)
let hypothesis_seed = 1

let hypothesis fam =
  match Service.family_of_spec ~n ~seed:hypothesis_seed fam with
  | Ok pmf -> pmf
  | Error msg -> failwith msg

let config_line fam =
  Printf.sprintf {|{"cmd":"config","n":%d,"family":"%s","eps":%g,"seed":%d}|}
    n fam eps hypothesis_seed

let stats_line = {|{"cmd":"stats"}|}
let verdict_line = {|{"cmd":"verdict"}|}

let observe_line buf ~shard xs =
  Buffer.clear buf;
  Buffer.add_string buf {|{"cmd":"observe","shard":"|};
  Buffer.add_string buf shard;
  Buffer.add_string buf {|","xs":[|};
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int x))
    xs;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* A cyclic pool of observe lines for one connection: line [i] goes to
   shard [prefix.s(i mod shards)] and carries [per_line] draws from the
   hypothesis.  [payloads] keeps the decoded values for replays. *)
type pool = { lines : string array; payloads : int array array; per_line : int }

let pool ~alias ~rng ~prefix ~shards ~per_line ~count =
  let buf = Buffer.create (per_line * 7) in
  let payloads =
    Array.init count (fun _ ->
        Array.init per_line (fun _ -> Alias.draw alias rng))
  in
  let lines =
    Array.mapi
      (fun i xs ->
        observe_line buf ~shard:(Printf.sprintf "%s.s%d" prefix (i mod shards)) xs)
      payloads
  in
  { lines; payloads; per_line }

(* The shape of a serve workload's traffic. *)
type shape = {
  conns : int;
  shards : int;  (** per connection *)
  per_line : int;
  pool_lines : int;  (** distinct lines per connection, cycled *)
  inflight : int;  (** per connection, closed loop *)
  open_rate : float;  (** lines/s over all connections, open loop *)
}

let serve_small =
  {
    conns = 2;
    shards = 8;
    per_line = 16;
    pool_lines = 8192;
    inflight = 256;
    open_rate = 80_000.;
  }

let serve_large =
  {
    conns = 2;
    shards = 8;
    per_line = 8192;
    pool_lines = 64;
    inflight = 4;
    open_rate = 1_500.;
  }

(* serve-verdict's writer: one connection over 64 shards.  The daemon
   drains every buffered line of a connection before it turns to the
   next, so 256 lines in flight (four batches) are all served once per
   verdict; with 64, whether one batch or two landed between verdicts
   was a race that moved the writer's rate by a fifth. *)
let verdict_writer =
  {
    conns = 1;
    shards = 64;
    per_line = 16;
    pool_lines = 4096;
    inflight = 256;
    open_rate = 0.;
  }

let pools ~seed shape =
  let alias = Alias.of_pmf (hypothesis family) in
  Array.init shape.conns (fun c ->
      pool ~alias ~rng:(rng ~seed (1 + c)) ~prefix:(Printf.sprintf "c%d" c)
        ~shards:shape.shards ~per_line:shape.per_line ~count:shape.pool_lines)

(* serve-verdict's reader seeds each fresh configuration with one line on
   its own shard, so a verdict never meets an empty registry. *)
let reader_line ~seed =
  let alias = Alias.of_pmf (hypothesis family) in
  let p = pool ~alias ~rng:(rng ~seed 9) ~prefix:"r" ~shards:1 ~per_line:16 ~count:1 in
  p.lines.(0)

(* The check block every serve workload ends with: config, 256 lines of
   the workload's shape over 4 shards, stats, verdict. *)
let check_script ~seed shape =
  let alias = Alias.of_pmf (hypothesis family) in
  let p =
    pool ~alias ~rng:(rng ~seed 10) ~prefix:"chk" ~shards:4
      ~per_line:shape.per_line ~count:256
  in
  Array.concat
    [ [| config_line family |]; p.lines; [| stats_line; verdict_line |] ]

(* What [Service.serve] answers on [lines] from a fresh engine: the bytes
   the daemon must send back. *)
let reference_transcript lines =
  let svc = Service.create () in
  let i = ref 0 in
  let read_line ~block:_ =
    if !i < Array.length lines then begin
      incr i;
      Some lines.(!i - 1)
    end
    else None
  in
  let out = Buffer.create 65536 in
  let (_ : Service.serve_stats) =
    Service.serve svc ~pool:Parkit.Pool.sequential ~batch:64 ~read_line
      ~write:(fun b -> Buffer.add_buffer out b)
  in
  Buffer.contents out

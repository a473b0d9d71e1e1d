(* E22 — socket transport: the reactor serves many clients without
   giving up the engine's bytes or the stdio mode's speed.

   Two gates (wired into CI as `make bench-net`):

   1. Transcript identity: across a (clients, batch) grid, on an
      accepting and a rejecting corpus, every client's response stream
      over a real loopback TCP connection must be BYTE-IDENTICAL to
      the line-at-a-time oracle [Refkit.Strict_serve] on that client's
      request stream.  Any divergence exits non-zero, like E18..E21.

   2. Single-client overhead: socket serve at (clients=1, batch=64)
      must ingest within 1.3x of stdio serve — the daemon's
      stdin/stdout mode as it runs, the reactor over a pipe pair
      ([Exp_common.over_pipes], the loop E21 gates), transport costs
      included — on the same script.  Accepting, non-blocking socket
      I/O and the loopback stack must not tax the single-client path.

   Also recorded (not gated): aggregate throughput as the client count
   grows.  The engine is shared and single-threaded, so this measures
   the reactor's ability to keep the pipe full from several sockets at
   once, not parallel speedup.

   Clients are separate domains ([Domain.spawn], never fork — the
   harness may hold live pool domains), each driving a non-blocking
   connect/write/shutdown/read-to-EOF loop; the server steps the
   reactor on the bench's own domain until every client it expects has
   been admitted and has closed.  One machine-readable line per run is
   appended to BENCH_net.json. *)

let n = 4096
let k = 4
let eps = 0.25
let family = "staircase:4"

let configure ~seed svc =
  match Service.configure svc ~n ~family ~eps ~cells:None ~seed with
  | Ok _ -> ()
  | Error msg -> failwith ("E22 configure: " ^ msg)

(* Observe-only request stream for one client: private shard names, so
   per-client responses are independent of interleaving with the other
   clients (the engine is shared; shard totals are shard-local). *)
let client_script ~pmf ~seed ~client ~lines ~per_line =
  Exp_common.observe_corpus
    ~rng:(Randkit.Rng.create ~seed:(seed + (911 * client)))
    ~pmf
    ~prefix:(Printf.sprintf "c%d." client)
    ~shards:4 ~lines ~per_line

(* The byte oracle: what the line-at-a-time server answers on this
   stream from a configured service. *)
let reference_transcript ~seed script =
  let svc = Service.create () in
  configure ~seed svc;
  fst (Refkit.Strict_serve.transcript svc script)

(* One client: non-blocking loopback TCP.  Writes the whole payload,
   shuts down the send side, reads to EOF; returns the transcript. *)
let client_worker ~port ~payload () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  Unix.set_nonblock fd;
  let len = String.length payload in
  let sent = ref 0 in
  let shut = ref false in
  let eof = ref false in
  let out = Buffer.create (1 lsl 16) in
  let tmp = Bytes.create 65536 in
  while not !eof do
    let wl = if !sent < len then [ fd ] else [] in
    match Unix.select [ fd ] wl [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        (match writable with
        | [] -> ()
        | _ :: _ -> (
            match
              Unix.write_substring fd payload !sent (min 65536 (len - !sent))
            with
            | m -> sent := !sent + m
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()));
        if !sent >= len && not !shut then begin
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          shut := true
        end;
        (match readable with
        | [] -> ()
        | _ :: _ ->
            let rec rd () =
              match Unix.read fd tmp 0 (Bytes.length tmp) with
              | 0 -> eof := true
              | m ->
                  Buffer.add_subbytes out tmp 0 m;
                  rd ()
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                  ()
            in
            rd ())
  done;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Buffer.contents out

(* One cell: spawn [clients] domains against a fresh ephemeral-port
   listener, serve with the reactor until all of them are done, return
   (transcripts, reactor stats, serve wall time). *)
let run_cell ~seed ~batch ~payloads () =
  let lfd = Netio.listener (Netio.Tcp ("127.0.0.1", 0)) in
  let port = Netio.bound_port lfd in
  let service = Service.create () in
  configure ~seed service;
  let doms =
    Array.map (fun payload -> Domain.spawn (client_worker ~port ~payload))
      payloads
  in
  let clients = Array.length payloads in
  let stats, wall =
    Exp_common.wall_time_of (fun () ->
        let t = Netio.create_reactor ~batch ~service ~listeners:[ lfd ] () in
        while Netio.accepted t < clients || Netio.active t > 0 do
          Netio.step t ~timeout:0.05
        done;
        Netio.stats t)
  in
  let transcripts = Array.map Domain.join doms in
  Unix.close lfd;
  (transcripts, stats, wall)

(* Stdio serve with its real transport costs: the daemon's stdin/stdout
   mode as it runs, requests arriving through one pipe and responses
   leaving through the other.  This is the overhead bar's denominator:
   the socket path is allowed 1.3x of THIS, not of an in-memory replay
   that pays no input syscalls and no line splitting. *)
let stdio_round ~seed ~payload ~reference =
  let service = Service.create () in
  configure ~seed service;
  let transcript, stats, wall =
    Exp_common.over_pipes payload
      (Exp_common.reactor_serve ~batch:64 ~service)
  in
  if not (String.equal transcript reference) then
    failwith "E22 stdio baseline transcript diverged from the reference";
  (stats, wall)

let run (mode : Exp_common.mode) =
  Exp_common.section
    ~id:"E22 (socket transport: multi-client reactor, byte-identical)"
    ~claim:
      "Per-client response streams served over loopback TCP through the \
       Netio reactor are byte-identical to the line-at-a-time oracle on \
       the same request stream, at any (clients, batch); the single-client \
       socket path ingests within 1.3x of stdio serve.";
  let seed = mode.Exp_common.seed in
  let quick = mode.Exp_common.quick in

  let yes = Service.family_of_spec ~n ~seed family |> Result.get_ok in
  let no = Exp_common.no_instance ~n ~k in
  let lines = if quick then 8_000 else 24_000 in
  let per_line = 16 in
  let grid =
    if quick then [ (1, 64); (2, 64); (4, 64); (1, 1); (4, 256) ]
    else [ (1, 64); (2, 64); (4, 64); (8, 64); (1, 1); (4, 1); (4, 256); (8, 256) ]
  in
  let repeats = if quick then 3 else 5 in
  let max_clients =
    List.fold_left (fun acc (c, _) -> max acc c) 1 grid
  in

  let gate_pass = ref true in
  let all_rows = ref [] in
  List.iter
    (fun (side, pmf, corpus_seed) ->
      let scripts =
        Array.init max_clients (fun c ->
            client_script ~pmf ~seed:corpus_seed ~client:c ~lines ~per_line)
      in
      let payloads = Array.map Exp_common.payload scripts in
      let references = Array.map (reference_transcript ~seed) scripts in
      Exp_common.row "@.%s: %d clients max, %d lines x %d values each@." side
        max_clients lines per_line;
      Exp_common.row "%7s | %5s | %10s | %8s | %9s@." "clients" "batch"
        "values/s" "per-conn" "identical";
      Exp_common.hline ();
      List.iter
        (fun (clients, batch) ->
          let cell_payloads = Array.sub payloads 0 clients in
          let transcripts, stats, wall =
            Exp_common.best_of repeats
              (run_cell ~seed ~batch ~payloads:cell_payloads)
          in
          let identical = ref true in
          Array.iteri
            (fun c t ->
              if not (String.equal t references.(c)) then begin
                identical := false;
                Exp_common.row
                  "MISMATCH %s clients=%d batch=%d client=%d (%d vs %d \
                   bytes)@."
                  side clients batch c (String.length t)
                  (String.length references.(c))
              end)
            transcripts;
          if not !identical then gate_pass := false;
          let rate = float_of_int stats.Netio.engine.Service.values /. wall in
          Exp_common.row "%7d | %5d | %10.3e | %8.2e | %9b@." clients batch
            rate
            (rate /. float_of_int clients)
            !identical;
          all_rows :=
            (side, clients, batch, rate, !identical) :: !all_rows)
        grid)
    [ ("yes", yes, seed + 1); ("no", no, seed + 2) ];
  let rows = List.rev !all_rows in
  Exp_common.row "@.net gate (all transcripts byte-identical): %s@."
    (if !gate_pass then "PASS" else "FAIL");

  (* Overhead bar: the same single-client script through stdio serve
     (over real pipes, see [stdio_round]) vs the socket path.  The two
     measurements are INTERLEAVED round by round and compared
     best-vs-best: each is a short run, and on a busy machine two blocks
     measured minutes apart would mostly compare the machine against
     itself. *)
  let gate_script =
    client_script ~pmf:yes ~seed:(seed + 1) ~client:0 ~lines ~per_line
  in
  let gate_payload = Exp_common.payload gate_script in
  let gate_reference = reference_transcript ~seed gate_script in
  let gate_rounds = 2 * repeats in
  let best_socket = ref 0. and best_stdio = ref 0. in
  for _ = 1 to gate_rounds do
    let _, stats, wall =
      run_cell ~seed ~batch:64 ~payloads:[| gate_payload |] ()
    in
    let rate = float_of_int stats.Netio.engine.Service.values /. wall in
    if rate > !best_socket then best_socket := rate;
    let stdio_stats, stdio_wall =
      stdio_round ~seed ~payload:gate_payload ~reference:gate_reference
    in
    let rate =
      float_of_int stdio_stats.Netio.engine.Service.values /. stdio_wall
    in
    if rate > !best_stdio then best_stdio := rate
  done;
  let stdio_rate = !best_stdio in
  let overhead = stdio_rate /. Float.max 1e-9 !best_socket in
  let overhead_pass = overhead <= 1.3 in
  Exp_common.row
    "single-client overhead: stdio %.3e values/s, socket %.3e values/s -> \
     %.2fx (bar: <= 1.3x) %s@."
    stdio_rate !best_socket overhead
    (if overhead_pass then "PASS" else "FAIL");

  let json =
    Printf.sprintf
      "{\"bench\":\"e22_net\",\"n\":%d,\"k\":%d,\"eps\":%g,\"seed\":%d,\
       \"nproc\":%d,\
       \"lines\":%d,\"per_line\":%d,\"rows\":[%s],\
       \"stdio_values_per_s\":%.3e,\"socket_values_per_s\":%.3e,\
       \"single_client_overhead\":%.3f,\"overhead_pass\":%b,\
       \"net_gate_pass\":%b}"
      n k eps seed (Exp_common.nproc ()) lines per_line
      (String.concat ","
         (List.map
            (fun (side, clients, batch, rate, identical) ->
              Printf.sprintf
                "{\"side\":\"%s\",\"clients\":%d,\"batch\":%d,\
                 \"values_per_s\":%.3e,\"identical\":%b}"
                side clients batch rate identical)
            rows))
      stdio_rate !best_socket overhead overhead_pass !gate_pass
  in
  Exp_common.append_json "BENCH_net.json" json;
  if not (!gate_pass && overhead_pass) then exit 1

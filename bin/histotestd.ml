(* histotestd — long-running histogram-testing service.

   Serve mode (default): batched line-oriented JSON over stdin/stdout.
   Each request is one JSON object per line (see Wire); every shard's
   observations are added into one count vector per config, shards are
   reported by name and total, and verdicts are computed from that
   vector, so the daemon never holds raw samples beyond the counts.

     $ histotestd
     {"cmd":"config","n":4096,"family":"staircase:4","eps":0.25}
     {"cmd":"observe","shard":"edge-eu","xs":[17,803,2044]}
     {"cmd":"verdict"}

   The serve loop is batched and pipelined: it blocks for one request,
   drains up to --batch more that are already available, decodes
   observe/counts lines through the zero-allocation wire fast path
   (Service.Scan), applies them in request order on one domain, and
   answers with one buffered write per batch.  Responses are
   byte-identical to line-at-a-time serve at any --batch — the contract
   the E21 bench gates.

   Socket mode (--listen addr:port and/or --unix path): the same engine
   behind the Netio reactor — one select loop, up to --max-conns
   concurrent clients, per-connection batched executors, bounded
   outbound queues with backpressure.  Per-connection response streams
   are byte-identical to stdio serve on the same request stream (the
   contract the E22 bench gates); shard state is shared across clients.

   Replay mode (--replay): prove the determinism contract — ingest a
   corpus single-process and sharded (round-robin, shard-per-domain via
   the parkit pool), merge under fold and tree topologies, and require
   bit-identical statistics and verdicts.  Exit status 1 on any
   divergence, so CI can gate on it. *)

(* stdin/stdout, one client: the batched loop, reading through the
   line-length-bounded Netio.Reader.  An over-long line
   answers with the same wire error the reactor sends, then exits 1 —
   it cannot be parsed without unbounded buffering. *)
let serve ~batch ~fast_path ~max_line_bytes =
  let service = Service.create () in
  let reader = Netio.Reader.create ~max_line_bytes Unix.stdin in
  let overflow = ref false in
  let read_line ~block =
    match Netio.Reader.next_line reader ~block with
    | Netio.Reader.Line l -> Some l
    | Netio.Reader.Pending | Netio.Reader.Eof -> None
    | Netio.Reader.Too_long ->
        overflow := true;
        None
  in
  let write buf =
    Buffer.output_buffer stdout buf;
    flush stdout
  in
  let _stats : Service.serve_stats =
    Service.serve service ~batch ~fast_path ~read_line ~write
  in
  if !overflow then begin
    print_string (Netio.overlong_error max_line_bytes);
    print_newline ();
    flush stdout;
    1
  end
  else 0

let serve_net ~batch ~fast_path ~listen ~unix_path ~max_conns ~max_line_bytes =
  let addrs =
    (match listen with
    | None -> []
    | Some spec -> (
        match Netio.addr_of_string spec with
        | Ok a -> [ a ]
        | Error msg -> failwith msg))
    @ match unix_path with None -> [] | Some p -> [ Netio.Unix_path p ]
  in
  match
    List.map
      (fun addr ->
        let fd = Netio.listener addr in
        (addr, fd))
      addrs
  with
  | exception Failure msg ->
      prerr_endline ("error: " ^ msg);
      2
  | exception Unix.Unix_error (err, fn, arg) ->
      Format.eprintf "error: cannot listen (%s %s: %s)@." fn arg
        (Unix.error_message err);
      2
  | bound ->
      List.iter
        (fun (addr, fd) ->
          let shown =
            match addr with
            | Netio.Tcp (host, 0) ->
                Netio.pp_addr (Netio.Tcp (host, Netio.bound_port fd))
            | a -> Netio.pp_addr a
          in
          Format.eprintf "histotestd: listening on %s@." shown)
        bound;
      let service = Service.create () in
      let _stats : Netio.stats =
        Netio.serve_net service ~batch ~fast_path ~max_conns ~max_line_bytes
          ~listeners:(List.map snd bound) ()
      in
      0

let replay ~file ~samples ~family ~n ~eps ~cells ~seed ~shards =
  match Service.family_of_spec ~n ~seed family with
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      1
  | Ok dstar -> (
      let corpus =
        match file with
        | Some path -> (
            match Service.corpus_of_file path with
            | Error msg ->
                prerr_endline ("error: " ^ msg);
                [||]
            | Ok [||] ->
                prerr_endline "error: empty corpus file";
                [||]
            | Ok vs when Array.exists (fun v -> v < 0 || v >= n) vs ->
                prerr_endline "error: corpus values outside [0, n)";
                [||]
            | Ok vs -> vs)
        | None ->
            (* Self-contained corpus: iid draws from the hypothesis
               itself (seed + 1 keeps the draw stream distinct from the
               family construction's). *)
            let rng = Randkit.Rng.create ~seed:(seed + 1) in
            let alias = Alias.of_pmf dstar in
            Array.init samples (fun _ -> Alias.draw alias rng)
      in
      match corpus with
      | [||] -> 1
      | corpus ->
          let cells =
            match cells with Some c -> max 1 (min n c) | None -> min n 64
          in
          let part = Partition.equal_width ~n ~cells in
          let report = Service.replay ~part ~dstar ~eps ~shards corpus in
          Format.printf "replay: %d values, %d shards, n=%d eps=%g@."
            report.Service.total report.Service.shards n eps;
          Format.printf "single : %a  z=%.17g@." Verdict.pp
            report.Service.single_verdict report.Service.single_z;
          Format.printf "fold   : %a  z=%.17g@." Verdict.pp
            report.Service.fold_verdict report.Service.fold_z;
          Format.printf "tree   : %a  z=%.17g@." Verdict.pp
            report.Service.tree_verdict report.Service.tree_z;
          Format.printf "identical: %b@." report.Service.identical;
          if report.Service.identical then 0 else 1)

open Cmdliner

let replay_flag =
  Arg.(
    value & flag
    & info [ "replay" ]
        ~doc:
          "Replay a corpus single-process and sharded; exit non-zero \
           unless verdicts and statistics are bit-identical.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:"Replay corpus, one integer per line (default: draw --samples \
              iid values from the hypothesis).")

let samples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "samples" ] ~docv:"M"
        ~doc:"Corpus size when no --file is given (default 100000).")

let family_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "family" ] ~docv:"FAMILY"
        ~doc:"Hypothesis distribution for --replay, same vocabulary as \
              histotest (default staircase:4).")

let n_arg =
  Arg.(value & opt int 4096 & info [ "n"; "domain" ] ~docv:"N" ~doc:"Domain size.")

let eps_arg =
  Arg.(
    value & opt float 0.25
    & info [ "eps" ] ~docv:"EPS" ~doc:"Distance parameter.")

let cells_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cells" ] ~docv:"C" ~doc:"Diagnostic partition cells.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"S"
        ~doc:"Shard count for --replay (default 8).")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs" ] ~docv:"JOBS"
        ~doc:
          "Pool domains for $(b,--replay), which builds its shard states \
           in parallel (results are identical at any value); serve mode \
           runs on one domain and ignores it. 0 means \
           $(b,HISTOTEST_JOBS) if set, otherwise all recommended cores.")

let batch_arg =
  Arg.(
    value & opt int 64
    & info [ "batch" ] ~docv:"B"
        ~doc:
          "Serve mode: execute up to $(docv) already-available requests \
           per batch with one output flush (1 = line-at-a-time). \
           Responses are byte-identical at any value.")

let no_fast_path_flag =
  Arg.(
    value & flag
    & info [ "no-fast-path" ]
        ~doc:
          "Serve mode: decode every line with the strict JSON parser \
           instead of the observe/counts fast path (responses are \
           byte-identical either way; useful for differential testing).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR:PORT"
        ~doc:
          "Serve over TCP: accept concurrent clients on $(docv) (empty \
           host or * = all interfaces, port 0 = ephemeral) instead of \
           stdin/stdout.  Combinable with $(b,--unix).")

let unix_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "unix" ] ~docv:"PATH"
        ~doc:
          "Serve over a Unix-domain socket bound at $(docv) (a stale \
           socket file is replaced).  Combinable with $(b,--listen).")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Socket mode: maximum concurrent connections; past it, new \
           clients wait in the kernel backlog until a slot frees.")

let max_line_bytes_arg =
  Arg.(
    value
    & opt int Netio.Reader.default_max_line_bytes
    & info [ "max-line-bytes" ] ~docv:"BYTES"
        ~doc:
          "Reject request lines longer than $(docv) (default 1 MiB) with \
           a wire error instead of buffering them without bound; in \
           socket mode the offending connection is closed.")

(* --file/--samples/--family/--shards configure only the replay corpus;
   serve mode takes its hypothesis from `config` requests, so passing
   them without --replay is a misuse worth flagging. *)
let warn_replay_only_flags ~file ~samples ~family ~shards =
  let passed =
    List.filter_map
      (fun (name, on) -> if on then Some name else None)
      [
        ("--file", Option.is_some file);
        ("--samples", Option.is_some samples);
        ("--family", Option.is_some family);
        ("--shards", Option.is_some shards);
      ]
  in
  match passed with
  | [] -> ()
  | names ->
      Format.eprintf
        "warning: %s only take effect with --replay; serve mode takes its \
         hypothesis from `config` requests@."
        (String.concat ", " names)

let run replay_mode file samples family n eps cells seed shards jobs batch
    no_fast_path listen unix_path max_conns max_line_bytes =
  if jobs > 0 then Parkit.Pool.set_default ~jobs;
  if replay_mode then
    replay ~file
      ~samples:(Option.value samples ~default:100_000)
      ~family:(Option.value family ~default:"staircase:4")
      ~n ~eps ~cells ~seed
      ~shards:(Option.value shards ~default:8)
  else begin
    warn_replay_only_flags ~file ~samples ~family ~shards;
    if batch < 1 then begin
      prerr_endline "error: --batch must be at least 1";
      2
    end
    else if max_line_bytes < 1 then begin
      prerr_endline "error: --max-line-bytes must be at least 1";
      2
    end
    else if max_conns < 1 then begin
      prerr_endline "error: --max-conns must be at least 1";
      2
    end
    else if Option.is_some listen || Option.is_some unix_path then
      serve_net ~batch ~fast_path:(not no_fast_path) ~listen ~unix_path
        ~max_conns ~max_line_bytes
    else serve ~batch ~fast_path:(not no_fast_path) ~max_line_bytes
  end

let cmd =
  let doc =
    "histogram-testing service: accumulate sharded observation counts, \
     serve incremental verdicts over line-oriented JSON — on \
     stdin/stdout, TCP, or a Unix-domain socket"
  in
  Cmd.v
    (Cmd.info "histotestd" ~version:"1.0.0" ~doc)
    Term.(
      const run $ replay_flag $ file_arg $ samples_arg $ family_arg $ n_arg
      $ eps_arg $ cells_arg $ seed_arg $ shards_arg $ jobs_arg $ batch_arg
      $ no_fast_path_flag $ listen_arg $ unix_arg $ max_conns_arg
      $ max_line_bytes_arg)

let () = exit (Cmd.eval' cmd)

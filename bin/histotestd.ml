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
   contract the E22 bench gates); shard state is shared across clients. *)

(* stdin/stdout, one client: the batched loop, reading through the
   line-length-bounded Netio.Reader.  An over-long line
   answers with the same wire error the reactor sends, then exits 1 —
   it cannot be parsed without unbounded buffering. *)
let serve ~batch ~max_line_bytes =
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
    Service.serve service ~batch ~read_line ~write
  in
  if !overflow then begin
    print_string (Netio.overlong_error max_line_bytes);
    print_newline ();
    flush stdout;
    1
  end
  else 0

let serve_net ~batch ~listen ~unix_path ~max_conns ~max_line_bytes =
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
        Netio.serve_net service ~batch ~max_conns ~max_line_bytes
          ~listeners:(List.map snd bound) ()
      in
      0

open Cmdliner

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "jobs" ] ~docv:"JOBS"
        ~doc:
          "Accepted for compatibility and ignored: the daemon serves on \
           one domain.")

let batch_arg =
  Arg.(
    value & opt int 64
    & info [ "batch" ] ~docv:"B"
        ~doc:
          "Execute up to $(docv) already-available requests \
           per batch with one output flush (1 = line-at-a-time). \
           Responses are byte-identical at any value.")

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

let run (_jobs : int) batch listen unix_path max_conns max_line_bytes =
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
    serve_net ~batch ~listen ~unix_path ~max_conns ~max_line_bytes
  else serve ~batch ~max_line_bytes

let cmd =
  let doc =
    "histogram-testing service: accumulate sharded observation counts, \
     serve incremental verdicts over line-oriented JSON — on \
     stdin/stdout, TCP, or a Unix-domain socket"
  in
  Cmd.v
    (Cmd.info "histotestd" ~version:"1.0.0" ~doc)
    Term.(
      const run $ jobs_arg $ batch_arg $ listen_arg $ unix_arg $ max_conns_arg
      $ max_line_bytes_arg)

let () = exit (Cmd.eval' cmd)

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

   Socket mode (--listen addr:port and/or --unix path): up to
   --max-conns concurrent clients instead of stdin/stdout; shard state
   is shared across clients.

   Either way one loop serves: the Netio reactor, with stdin/stdout
   adopted as one more connection.  Each connection drains up to
   --batch requests already buffered, decodes observe/counts lines
   through the zero-allocation wire fast path (Service.Scan), applies
   them in request order on one domain, and answers with one write per
   batch; socket outputs are queued with backpressure.  Every
   connection's response stream is byte-identical to line-at-a-time
   serve on its request stream, at any --batch (the contracts E21 and
   E22 gate).  Stdio mode ends when its connection closes: at EOF, on
   quit, after an over-long line (answered with a wire error, exit 1)
   or when stdout goes away (exit 1). *)

(* The listeners for --listen/--unix, announced on stderr once bound
   (perf/ waits for that line before it connects). *)
let bind_listeners ~listen ~unix_path =
  let addrs =
    (match listen with
    | None -> []
    | Some spec -> (
        match Netio.addr_of_string spec with
        | Ok a -> [ a ]
        | Error msg -> failwith msg))
    @ match unix_path with None -> [] | Some p -> [ Netio.Unix_path p ]
  in
  match List.map (fun addr -> (addr, Netio.listener addr)) addrs with
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (err, fn, arg) ->
      Error
        (Printf.sprintf "cannot listen (%s %s: %s)" fn arg
           (Unix.error_message err))
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
      Ok (List.map snd bound)

let serve ~batch ~max_conns ~max_line_bytes listeners =
  let t =
    Netio.create_reactor ~batch ~max_conns ~max_line_bytes
      ~service:(Service.create ()) ~listeners ()
  in
  match listeners with
  | _ :: _ ->
      while true do
        Netio.step t ~timeout:0.5
      done;
      0
  | [] ->
      Netio.add_pipe t ~input:Unix.stdin ~output:Unix.stdout;
      while Netio.active t > 0 do
        Netio.step t ~timeout:0.5
      done;
      let st = Netio.stats t in
      if st.Netio.overlong + st.Netio.write_drops > 0 then 1 else 0

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

(* Shrink-only, so a smaller OCAMLRUNPARAM=s= wins; why the serve path
   needs no more is on Netio.nursery_words. *)
let shrink_nursery () =
  let params = Gc.get () in
  if params.Gc.minor_heap_size > Netio.nursery_words then
    Gc.set { params with Gc.minor_heap_size = Netio.nursery_words }

let run (_jobs : int) batch listen unix_path max_conns max_line_bytes =
  shrink_nursery ();
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
  else
    match bind_listeners ~listen ~unix_path with
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        2
    | Ok listeners -> serve ~batch ~max_conns ~max_line_bytes listeners

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

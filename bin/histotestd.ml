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
   or when stdout goes away (exit 1).

   The command line is parsed with Stdlib.Arg (--help lists the flags,
   --flag=value works too); a malformed one, or a value out of range,
   exits 2 with a message on stderr before anything is served.  Not
   Cmdliner, which bin/main.exe uses: for six flags parsed once, that
   library cost this process about 0.6 MiB, a tenth of its resident set,
   and 10-20 % of its start-up (DESIGN.md "Daemon start-up footprint"). *)

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
          prerr_endline ("histotestd: listening on " ^ shown))
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

(* Shrink-only, so a smaller OCAMLRUNPARAM=s= wins; why the serve path
   needs no more is on Netio.nursery_words. *)
let shrink_nursery () =
  let params = Gc.get () in
  if params.Gc.minor_heap_size > Netio.nursery_words then
    Gc.set { params with Gc.minor_heap_size = Netio.nursery_words }

let usage =
  "histotestd [OPTION]...\n\n\
   histogram-testing service: accumulate sharded observation counts, serve \
   incremental verdicts over line-oriented JSON -- on stdin/stdout, TCP, or \
   a Unix-domain socket.  A malformed command line or a value out of range \
   exits 2.\n\nOptions:"

let main () =
  shrink_nursery ();
  let batch = ref 64
  and listen = ref None
  and unix_path = ref None
  and max_conns = ref 64
  and max_line_bytes = ref Netio.Reader.default_max_line_bytes in
  let specs =
    Arg.align
      [
        ( "--jobs",
          Arg.Int ignore,
          "JOBS Accepted for compatibility and ignored: the daemon serves on \
           one domain." );
        ( "--batch",
          Arg.Set_int batch,
          "B Execute up to B already-available requests per batch with one \
           output flush (1 = line-at-a-time; default 64; at most 4096).  \
           Responses are byte-identical at any value." );
        ( "--listen",
          Arg.String (fun s -> listen := Some s),
          "ADDR:PORT Serve over TCP: accept concurrent clients on ADDR:PORT \
           (empty host or * = all interfaces, port 0 = ephemeral) instead of \
           stdin/stdout.  Combinable with --unix." );
        ( "--unix",
          Arg.String (fun s -> unix_path := Some s),
          "PATH Serve over a Unix-domain socket bound at PATH (a stale socket \
           file is replaced).  Combinable with --listen." );
        ( "--max-conns",
          Arg.Set_int max_conns,
          "N Socket mode: maximum concurrent connections (default 64); past \
           it, new clients wait in the kernel backlog until a slot frees." );
        ( "--max-line-bytes",
          Arg.Set_int max_line_bytes,
          "BYTES Reject request lines longer than BYTES (default 1 MiB) with a \
           wire error instead of buffering them without bound; in socket mode \
           the offending connection is closed." );
        ( "--version",
          Arg.Unit
            (fun () ->
              print_endline "1.0.0";
              exit 0),
          " Print the version and exit." );
      ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument '" ^ a ^ "'")))
    usage;
  if !batch < 1 then begin
    prerr_endline "error: --batch must be at least 1";
    2
  end
  else if !batch > Service.Batch.max_batch then begin
    Printf.eprintf "error: --batch must be at most %d\n" Service.Batch.max_batch;
    2
  end
  else if !max_line_bytes < 1 then begin
    prerr_endline "error: --max-line-bytes must be at least 1";
    2
  end
  else if !max_conns < 1 then begin
    prerr_endline "error: --max-conns must be at least 1";
    2
  end
  else
    match bind_listeners ~listen:!listen ~unix_path:!unix_path with
    | Error msg ->
        prerr_endline ("error: " ^ msg);
        2
    | Ok listeners ->
        serve ~batch:!batch ~max_conns:!max_conns
          ~max_line_bytes:!max_line_bytes listeners

let () = exit (main ())

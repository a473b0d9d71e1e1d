(* histotestd at the process boundary: the built daemon, spawned on
   three pipes, fed a script and read to EOF (or, with --listen, asked
   over TCP).  What it must answer comes from the line-at-a-time oracle
   ([Refkit.Strict_serve]) and from [Netio.overlong_error]; how it must
   end is its exit status; how it is linked is read from its ELF headers.

   Usage: test_daemon.exe path/to/histotestd.exe SYSTEM
   (SYSTEM is ocamlfind's [ocaml-config] system, e.g. linux) *)

let daemon, system =
  if Array.length Sys.argv < 3 then begin
    prerr_endline "usage: test_daemon PATH_TO_HISTOTESTD SYSTEM";
    exit 2
  end
  else (Sys.argv.(1), Sys.argv.(2))

(* Each run is given this long before the daemon is killed and the case
   fails, so a daemon that stops making progress cannot hang the suite. *)
let deadline_s = 30.

type run = { out : string; err : string; status : Unix.process_status }

(* Spawn the daemon with the default SIGPIPE disposition (dispositions
   survive exec, and the daemon must not depend on what it inherits);
   this process ignores SIGPIPE so that writing to a daemon that has
   gone surfaces as EPIPE here. *)
let spawn args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let pid =
    Unix.create_process daemon
      (Array.of_list (daemon :: args))
      in_r out_w err_w
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter Unix.close [ in_r; out_w; err_w ];
  (pid, in_w, out_r, err_r)

(* Write [input] to the daemon's stdin and close it, reading stdout
   (unless [close_stdout] closed it at once) and stderr to EOF. *)
let run ?(close_stdout = false) args input =
  let pid, in_w, out_r, err_r = spawn args in
  if close_stdout then Unix.close out_r;
  Unix.set_nonblock in_w;
  let out = Buffer.create 4096 and err = Buffer.create 256 in
  let tmp = Bytes.create 65536 in
  let sent = ref 0 and writer = ref (Some in_w) in
  let readers =
    ref ((if close_stdout then [] else [ (out_r, out) ]) @ [ (err_r, err) ])
  in
  let close_writer () =
    Option.iter Unix.close !writer;
    writer := None
  in
  let start = Unix.gettimeofday () in
  while !readers <> [] do
    if Unix.gettimeofday () -. start > deadline_s then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.failf "histotestd %s: no EOF within %.0f s"
        (String.concat " " args) deadline_s
    end;
    let wfds = Option.to_list !writer in
    match Unix.select (List.map fst !readers) wfds [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        (match (!writer, writable) with
        | Some fd, _ :: _ -> (
            let len = String.length input in
            match Unix.write_substring fd input !sent (min 4096 (len - !sent)) with
            | k ->
                sent := !sent + k;
                if !sent = len then close_writer ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
              ->
                ()
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                close_writer ())
        | _ -> ());
        List.iter
          (fun fd ->
            let buf = List.assoc fd !readers in
            match Unix.read fd tmp 0 (Bytes.length tmp) with
            | 0 ->
                Unix.close fd;
                readers := List.remove_assoc fd !readers
            | k -> Buffer.add_subbytes buf tmp 0 k
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          readable
  done;
  close_writer ();
  let _, status = Unix.waitpid [] pid in
  { out = Buffer.contents out; err = Buffer.contents err; status }

let pp_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let check_exit label want r =
  Alcotest.(check string) (label ^ ": status") (pp_status (Unix.WEXITED want))
    (pp_status r.status)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1))
  in
  at 0

let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)
let oracle script =
  let svc = Service.create () in
  fst (Refkit.Strict_serve.transcript svc (Array.of_list script))
let config = {|{"cmd":"config","n":64,"family":"staircase:4","eps":0.25}|}

let observe shard xs =
  Printf.sprintf {|{"cmd":"observe","shard":"%s","xs":[%s]}|} shard
    (String.concat "," (List.map string_of_int xs))

(* Every case runs line at a time and at the default batch. *)
let batches = [ [ "--batch"; "1" ]; [] ]

let test_overlong () =
  let max = 128 in
  let head = [ config; observe "a" [ 1; 2; 3 ] ] in
  let input =
    lines (head @ [ String.make 300 'x'; observe "never" [ 4 ]; {|{"cmd":"verdict"}|} ])
  in
  List.iter
    (fun batch ->
      let label = String.concat " " ("overlong" :: batch) in
      let r = run (batch @ [ "--max-line-bytes"; string_of_int max ]) input in
      Alcotest.(check string)
        (label ^ ": answered up to the line, then the wire error")
        (oracle head ^ Netio.overlong_error max ^ "\n")
        r.out;
      check_exit label 1 r)
    batches

let test_quit_mid_stream () =
  let head = [ config; observe "a" [ 1; 2 ]; {|{"cmd":"quit"}|} ] in
  let tail = List.init 200 (fun i -> observe "tail" [ i mod 64 ]) in
  List.iter
    (fun batch ->
      let label = String.concat " " ("quit" :: batch) in
      let r = run batch (lines (head @ tail)) in
      Alcotest.(check string) (label ^ ": tail unanswered") (oracle head) r.out;
      check_exit label 0 r)
    batches

let test_unterminated_last_line () =
  let script = [ config; observe "a" [ 5; 6 ]; {|{"cmd":"verdict"}|} ] in
  let input = lines script in
  let input = String.sub input 0 (String.length input - 1) in
  List.iter
    (fun batch ->
      let label = String.concat " " ("unterminated" :: batch) in
      let r = run batch input in
      Alcotest.(check string) (label ^ ": last line answered") (oracle script)
        r.out;
      check_exit label 0 r)
    batches

(* A consumer that goes away: the daemon must end, and say by its status
   that not everything was delivered (killed by SIGPIPE, or an exit code
   after EPIPE). *)
let test_stdout_closed () =
  let input =
    lines (config :: List.init 2000 (fun i -> observe "s" [ i mod 64; 7 ]))
  in
  List.iter
    (fun batch ->
      let label = String.concat " " ("stdout closed" :: batch) in
      let r = run ~close_stdout:true batch input in
      Alcotest.(check bool)
        (Printf.sprintf "%s: terminates non-zero (%s)" label (pp_status r.status))
        true
        (r.status <> Unix.WEXITED 0))
    batches

let test_bad_flags () =
  List.iter
    (fun (flag, value) ->
      let r = run [ flag; value ] (lines [ config ]) in
      let label = flag ^ " " ^ value in
      check_exit label 2 r;
      Alcotest.(check string) (label ^ ": nothing on stdout") "" r.out;
      Alcotest.(check bool)
        (Printf.sprintf "%s: one line on stderr (%S)" label r.err)
        true
        (String.length r.err > 1
        && String.index r.err '\n' = String.length r.err - 1);
      Alcotest.(check bool)
        (label ^ ": no exception") false
        (contains r.err "xception"))
    [
      ("--batch", "0");
      ("--batch", string_of_int (Service.Batch.max_batch + 1));
      ("--max-conns", "0");
      ("--max-line-bytes", "0");
    ]

(* The command line (Stdlib.Arg): help and version on stdout with exit 0,
   a malformed command line exits 2 before serving, and the flag forms
   perf/ (--jobs 1) and the README (--batch=16) use serve as no flags. *)
let test_help () =
  let r = run [ "--help" ] "" in
  check_exit "--help" 0 r;
  List.iter
    (fun flag ->
      Alcotest.(check bool) ("--help lists " ^ flag) true
        (contains r.out ("  " ^ flag ^ " ")))
    [
      "--jobs"; "--batch"; "--listen"; "--unix"; "--max-conns";
      "--max-line-bytes"; "--version";
    ]

let test_version () =
  let r = run [ "--version" ] "" in
  check_exit "--version" 0 r;
  Alcotest.(check string) "--version: the version" "1.0.0\n" r.out

let test_malformed_command_line () =
  List.iter
    (fun args ->
      let label = String.concat " " args in
      let r = run args (lines [ config ]) in
      check_exit label 2 r;
      Alcotest.(check string) (label ^ ": nothing on stdout") "" r.out;
      Alcotest.(check bool)
        (Printf.sprintf "%s: no exception (%S)" label r.err)
        false
        (contains r.err "xception"))
    [ [ "--bogus" ]; [ "--batch"; "x" ] ]

let test_flag_forms () =
  let script = [ config; observe "a" [ 1; 2; 3 ]; {|{"cmd":"verdict"}|} ] in
  let input = lines script in
  let plain = run [] input in
  check_exit "no flags" 0 plain;
  Alcotest.(check string) "no flags: the oracle's transcript" (oracle script)
    plain.out;
  List.iter
    (fun args ->
      let label = String.concat " " args in
      let r = run args input in
      check_exit label 0 r;
      Alcotest.(check string) (label ^ ": as with no flags") plain.out r.out)
    [ [ "--jobs"; "1" ]; [ "--batch=16" ] ]

(* The first line [fd] yields within [deadline_s], without its newline;
   [None] at EOF or past the deadline. *)
let first_line fd =
  let line = Buffer.create 128 and byte = Bytes.create 1 in
  let start = Unix.gettimeofday () in
  let rec go () =
    if Unix.gettimeofday () -. start > deadline_s then None
    else
      match Unix.select [ fd ] [] [] 1.0 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents line)
          | _ ->
              Buffer.add_bytes line byte;
              go ())
  in
  go ()

(* A TCP listener on a host name goes through the resolver, which a
   static glibc links in (nss files and dns are part of libc): the daemon
   announces the name and the port it bound, and answers there. *)
let test_listen_localhost () =
  let pid, in_w, out_r, err_r = spawn [ "--listen"; "localhost:0" ] in
  Fun.protect
    ~finally:(fun () ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      List.iter Unix.close [ in_w; out_r; err_r ])
    (fun () ->
      let prefix = "histotestd: listening on localhost:" in
      let port =
        match first_line err_r with
        | Some l when String.starts_with ~prefix l ->
            let p = String.length prefix in
            int_of_string (String.sub l p (String.length l - p))
        | Some l -> Alcotest.failf "unexpected announcement %S" l
        | None -> Alcotest.fail "no announcement on stderr"
      in
      let host = (Unix.gethostbyname "localhost").Unix.h_addr_list.(0) in
      let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close sock)
        (fun () ->
          Unix.connect sock (Unix.ADDR_INET (host, port));
          let req = config ^ "\n" in
          ignore (Unix.write_substring sock req 0 (String.length req));
          Alcotest.(check (option string))
            "config answered over TCP"
            (Some (String.trim (oracle [ config ])))
            (first_line sock)))

let test_listen_unresolvable () =
  let r = run [ "--listen"; "nosuch.invalid:0" ] "" in
  check_exit "nosuch.invalid" 2 r;
  Alcotest.(check string) "nosuch.invalid: nothing on stdout" "" r.out;
  Alcotest.(check string) "nosuch.invalid: one line on stderr"
    "error: cannot resolve host \"nosuch.invalid\"\n" r.err

(* --- the link ------------------------------------------------------- *)

(* What exec would ask of a dynamic loader for the ELF64 image at
   [path] (OCaml 5 has only 64-bit native code): whether it names one (a
   PT_INTERP program header) and how many shared objects its dynamic
   section needs (DT_NEEDED entries).  Either byte order. *)
let loader_needs path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  if String.length s < 64 || not (String.starts_with ~prefix:"\x7fELF\002" s)
  then Alcotest.failf "%s: not an ELF64 image" path;
  let le = s.[5] = '\001' in
  let u16 o =
    if le then String.get_uint16_le s o else String.get_uint16_be s o
  in
  let u64 o =
    Int64.to_int
      (if le then String.get_int64_le s o else String.get_int64_be s o)
  in
  let u32 o =
    Int32.to_int
      (if le then String.get_int32_le s o else String.get_int32_be s o)
    land 0xffff_ffff
  in
  let phoff = u64 0x20 and phentsize = u16 0x36 and phnum = u16 0x38 in
  let interp = ref false and needed = ref 0 in
  for i = 0 to phnum - 1 do
    let ph = phoff + (i * phentsize) in
    match u32 ph with
    | 3 (* PT_INTERP *) -> interp := true
    | 2 (* PT_DYNAMIC *) ->
        let off = u64 (ph + 0x08) and size = u64 (ph + 0x20) in
        for j = 0 to (size / 16) - 1 do
          if u64 (off + (j * 16)) = 1 (* DT_NEEDED *) then incr needed
        done
    | _ -> ()
  done;
  (!interp, !needed)

(* On Linux the daemon is linked as one static image (bin/dune). *)
let test_static_image () =
  if String.equal system "linux" then begin
    let interp, needed = loader_needs daemon in
    Alcotest.(check bool) "no PT_INTERP (no dynamic loader)" false interp;
    Alcotest.(check int) "no DT_NEEDED (no shared objects)" 0 needed
  end

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "histotestd"
    [
      ( "stdio",
        [
          Alcotest.test_case "over-long line: wire error, exit 1" `Quick
            test_overlong;
          Alcotest.test_case "quit mid-stream: tail unanswered, exit 0" `Quick
            test_quit_mid_stream;
          Alcotest.test_case "unterminated last line answered" `Quick
            test_unterminated_last_line;
          Alcotest.test_case "stdout closed early: ends non-zero" `Quick
            test_stdout_closed;
          Alcotest.test_case "out-of-range flag values: exit 2, one line" `Quick
            test_bad_flags;
          Alcotest.test_case "--help: exit 0, every flag" `Quick test_help;
          Alcotest.test_case "--version prints 1.0.0" `Quick test_version;
          Alcotest.test_case "malformed command line: exit 2" `Quick
            test_malformed_command_line;
          Alcotest.test_case "--jobs 1 and --batch=16 serve as no flags"
            `Quick test_flag_forms;
        ] );
      ( "listen",
        [
          Alcotest.test_case "--listen localhost:0 announces and answers"
            `Quick test_listen_localhost;
          Alcotest.test_case "--listen nosuch.invalid:0: exit 2, one line"
            `Quick test_listen_unresolvable;
        ] );
      ( "link",
        [
          Alcotest.test_case "static on linux: no PT_INTERP, no DT_NEEDED"
            `Quick test_static_image;
        ] );
    ]

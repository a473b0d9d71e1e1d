(* Processes the benchmark starts: the daemon under test and the short
   provenance probes.  Every process started here is stopped and reaped
   before the benchmark exits, an uncaught exception included. *)

(* Scratch files (the daemon's socket, trace inputs, spans) live here,
   relative to the working directory, which keeps the socket path short;
   dune's build directory is already outside version control. *)
let tmp_dir = Filename.concat "_build" "perf-tmp"

let ensure_tmp () =
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ Filename.dirname tmp_dir; tmp_dir ]

let tmp name = Filename.concat tmp_dir name
let remove path = try Sys.remove path with Sys_error _ -> ()

type daemon = {
  pid : int;
  sock : string;
  stdin_w : Unix.file_descr;  (** held open so the daemon's stdin stays quiet *)
  err_r : Unix.file_descr;
}

let live : daemon list ref = ref []

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    Unix.close d.stdin_w;
    Unix.close d.err_r;
    remove d.sock
  end

let () = at_exit (fun () -> List.iter stop !live)

(* First line of a probe's stdout, [None] if it cannot run. *)
let probe prog args =
  ensure_tmp ();
  let log_path = tmp "probe.log" in
  let log =
    Unix.openfile log_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    try Some (Unix.create_process prog (Array.of_list (prog :: args)) in_r out_w log)
    with Unix.Unix_error _ -> None
  in
  List.iter Unix.close [ in_r; in_w; out_w; log ];
  let result =
    match pid with
    | None -> None
    | Some pid -> (
        let ic = Unix.in_channel_of_descr out_r in
        let line = In_channel.input_line ic in
        ignore (In_channel.input_all ic);
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> line | _ -> None)
  in
  Unix.close out_r;
  remove log_path;
  result

(* Read the daemon's stderr until it reports its listener. *)
let await_listening err_r =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    let text = Buffer.contents buf in
    if
      List.exists
        (String.starts_with ~prefix:"histotestd: listening on ")
        (String.split_on_char '\n' text)
    then Ok ()
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Error ("no listener after 30 s: " ^ text)
      else
        match Unix.select [ err_r ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
            match Unix.read err_r chunk 0 (Bytes.length chunk) with
            | 0 -> Error ("daemon exited: " ^ text)
            | k ->
                Buffer.add_subbytes buf chunk 0 k;
                go ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* [histotestd --unix SOCK --jobs 1] with the default --batch 64; returns
   once the socket is bound. *)
let spawn ~exe ~sock =
  remove sock;
  let in_r, stdin_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "--unix"; sock; "--jobs"; "1" |] in_r err_w
      err_w
  in
  Unix.close in_r;
  Unix.close err_w;
  let d = { pid; sock; stdin_w; err_r } in
  live := d :: !live;
  match await_listening err_r with
  | Ok () -> d
  | Error msg ->
      stop d;
      failwith msg

(* The generator on CPU 0 and the daemon under test on CPU 1, when the
   host has two CPUs and taskset is installed; false when they are left
   to the scheduler.  Unpinned, the scheduler sometimes kept the two on
   one CPU for a whole phase, each getting half of it, and the open
   loop's median latency read 134 ms instead of 0.5 ms.  Daemons spawned
   after [pin_self] start on CPU 0 with the (then idle) generator, so
   every timed spawn sees the same placement. *)
let taskset cpu pid =
  Option.is_some (probe "taskset" [ "-p"; "-c"; cpu; string_of_int pid ])

let pin_self () =
  Domain.recommended_domain_count () >= 2 && taskset "0" (Unix.getpid ())

let pin d = taskset "1" d.pid

(* Peak resident set ([VmHWM]) of a process ("self" or a pid), in MiB. *)
let peak_rss_mib who =
  let path = Printf.sprintf "/proc/%s/status" who in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let line =
    List.find (String.starts_with ~prefix:"VmHWM:") (String.split_on_char '\n' text)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

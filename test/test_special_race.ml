(* Two domains reach [Special.log_factorial] for the first time at the
   same moment, in a fresh process.  While its table was a module-level
   lazy, one of them raised [CamlinternalLazy.Undefined] in most such
   processes (the samplers' rejection paths reach the table, and Parkit
   runs trials on several domains).  Built eagerly at module
   initialisation, the table exists before any domain does.  A process
   reaches its first use only once, so the test re-runs this executable
   as [child] in fresh processes. *)

let child () =
  let ready = Atomic.make 0 in
  let race () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    Numkit.Special.log_factorial 10
  in
  let a = Domain.spawn race and b = Domain.spawn race in
  let x = Domain.join a and y = Domain.join b in
  if not (Float.equal x y) then exit 3

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "child" then
    child ()
  else begin
    let runs = 40 in
    let failed = ref 0 in
    for _ = 1 to runs do
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "child" |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> incr failed
    done;
    if !failed > 0 then begin
      Printf.eprintf
        "log_factorial's first use raced: %d of %d fresh processes failed\n"
        !failed runs;
      exit 1
    end
  end

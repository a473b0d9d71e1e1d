let serve t ~read_line ~write =
  let rec loop answered =
    match read_line () with
    | None -> answered
    | Some line when String.equal (String.trim line) "" -> loop answered
    | Some line ->
        let response, continue = Service.handle_line t line in
        write (Jsonl.to_string response ^ "\n");
        if continue then loop (answered + 1) else answered + 1
  in
  loop 0

let transcript lines =
  let out = Buffer.create 4096 in
  let next = ref 0 in
  let read_line () =
    if !next < Array.length lines then begin
      incr next;
      Some lines.(!next - 1)
    end
    else None
  in
  let answered =
    serve (Service.create ()) ~read_line ~write:(Buffer.add_string out)
  in
  (Buffer.contents out, answered)

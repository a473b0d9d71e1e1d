let serve t ~read_line ~write =
  let response = Buffer.create 256 in
  let rec loop answered =
    match read_line () with
    | None -> answered
    | Some line when String.equal (String.trim line) "" -> loop answered
    | Some line ->
        Buffer.clear response;
        let continue = Service.handle_line t response line in
        Buffer.add_char response '\n';
        write (Buffer.contents response);
        if continue then loop (answered + 1) else answered + 1
  in
  loop 0

let transcript t lines =
  let out = Buffer.create 4096 in
  let next = ref 0 in
  let read_line () =
    if !next < Array.length lines then begin
      incr next;
      Some lines.(!next - 1)
    end
    else None
  in
  let answered = serve t ~read_line ~write:(Buffer.add_string out) in
  (Buffer.contents out, answered)

(* A minimal blocking client for the server's framed wire protocol:
   request lines out, one "<STATUS> <len>\n<body>\n" response back for
   each, in order.  Kept apart from [Flexpath_server.Client] so the
   client adds no retries, reconnects or deadline rewriting to what it
   measures. *)

type conn = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Ok { fd; buf = Bytes.create 65536; pos = 0; len = 0 }
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    Error (Unix.error_message e)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

exception Closed

let rec write_all fd s off n =
  if n > 0 then begin
    let w = Unix.write_substring fd s off n in
    write_all fd s (off + w) (n - w)
  end

let fill c =
  if c.pos = c.len then begin
    c.pos <- 0;
    c.len <- Unix.read c.fd c.buf 0 (Bytes.length c.buf);
    if c.len = 0 then raise Closed
  end

let read_line c =
  let b = Buffer.create 32 in
  let rec go () =
    fill c;
    let ch = Bytes.get c.buf c.pos in
    c.pos <- c.pos + 1;
    if ch <> '\n' then begin
      Buffer.add_char b ch;
      go ()
    end
  in
  go ();
  Buffer.contents b

let read_exact c n =
  let out = Bytes.create n in
  let rec go off =
    if off < n then begin
      fill c;
      let m = min (n - off) (c.len - c.pos) in
      Bytes.blit c.buf c.pos out off m;
      c.pos <- c.pos + m;
      go (off + m)
    end
  in
  go 0;
  Bytes.unsafe_to_string out

let guard f =
  match f () with
  | r -> r
  | exception Closed -> Error "connection closed"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Failure m -> Error m

(* [post c line] sends one request without waiting for its response, so
   a client can keep several requests in flight on one connection. *)
let post c line =
  guard (fun () ->
      let msg = line ^ "\n" in
      write_all c.fd msg 0 (String.length msg);
      Ok ())

(* [receive c] reads the next response as (status, body). *)
let receive c =
  guard (fun () ->
      let status_line = read_line c in
      match String.index_opt status_line ' ' with
      | None -> Error ("bad status line: " ^ status_line)
      | Some i ->
        let status = String.sub status_line 0 i in
        let n = int_of_string (String.sub status_line (i + 1) (String.length status_line - i - 1)) in
        let b = read_exact c n in
        ignore (read_exact c 1);
        Ok (status, b))

let request c line = Result.bind (post c line) (fun () -> receive c)

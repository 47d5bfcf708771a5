(* Shared by the end-to-end and the traced run: outcome bookkeeping,
   statistics, files, the server process, STATS and the answer checks. *)

module W = Workload

let now = Clock.now
let t_start = now ()
let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "bench [%5.1fs] %s\n%!" (now () -. t_start) s) fmt

(* ------------------------------------------------------------------ *)
(* Outcome bookkeeping, shared by the connection domains *)

let lock = Mutex.create ()
let locked f = Mutex.protect lock f
let errors = ref []
let n_errors = ref 0

(* A wrong answer or a broken invariant: the run is not correct. *)
let wrong fmt =
  Printf.ksprintf
    (fun s ->
      locked (fun () ->
          incr n_errors;
          if !n_errors <= 10 then errors := s :: !errors))
    fmt

let attempted = Atomic.make 0
let failed = Atomic.make 0

let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = pct (sorted l) 0.5
let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Files and processes *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* Reads to end of file; /proc files report length 0. *)
let read_file path =
  match open_in_bin path with
  | ic ->
    let b = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      let n = input ic chunk 0 4096 in
      if n > 0 then begin
        Buffer.add_subbytes b chunk 0 n;
        go ()
      end
    in
    go ();
    close_in ic;
    Some (Buffer.contents b)
  | exception Sys_error _ -> None

(* user+sys CPU of a process in ms, from /proc/<pid>/stat (clock ticks
   of 10 ms). *)
let cpu_ms pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> Float.nan
  | Some s -> (
    let close = String.rindex s ')' in
    let fields = String.split_on_char ' ' (String.sub s (close + 2) (String.length s - close - 2)) in
    match (List.nth_opt fields 11, List.nth_opt fields 12) with
    | Some u, Some k -> float_of_string (u ^ ".") *. 10.0 +. (float_of_string (k ^ ".") *. 10.0)
    | _ -> Float.nan)

let vm_hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> Float.nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      Float.nan (String.split_on_char '\n' s)

type server = { pid : int; port : int }

let nproc = Domain.recommended_domain_count ()

(* Start the server on fresh copies of the pristine snapshot and WAL;
   returns it with the seconds from spawn to the first PING answered. *)
let spawn ~bin ~dir (inp : W.inputs) =
  let snap = Filename.concat dir "live.snap" and wal = Filename.concat dir "live.wal" in
  copy_file inp.snapshot snap;
  copy_file inp.wal wal;
  let port_file = Filename.concat dir "port" in
  if Sys.file_exists port_file then Sys.remove port_file;
  let args =
    [ bin; "serve"; "--env"; snap; "--ingest-wal"; wal; "--merge-interval-ms"; "0" ]
    @ [ "--workers"; string_of_int nproc; "--port"; "0"; "--port-file"; port_file ]
    @ [ "--queue-depth"; "256" ]
    @ match inp.kind with W.Cold -> [ "--no-cache" ] | W.Hot -> []
  in
  let logfd =
    Unix.openfile (Filename.concat dir "server.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  let t0 = now () in
  let pid = Unix.create_process bin (Array.of_list args) Unix.stdin logfd logfd in
  Unix.close logfd;
  let rec wait_port () =
    if now () -. t0 > 120.0 then failwith "server did not start within 120 s"
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p = pid -> failwith "server exited during start-up (see server.log)"
      | _ -> (
        match Option.bind (read_file port_file) (fun s -> int_of_string_opt (String.trim s)) with
        | Some port -> port
        | None ->
          Unix.sleepf 0.0005;
          wait_port ())
  in
  let port = wait_port () in
  let rec ping () =
    match Wire.connect port with
    | Error _ ->
      Unix.sleepf 0.0005;
      ping ()
    | Ok c -> (
      let r = Wire.request c "PING" in
      Wire.close c;
      match r with Ok ("OK", _) -> () | _ -> ping ())
  in
  ping ();
  ({ pid; port }, now () -. t0)

(* A set-up-only server: no state worth a graceful exit. *)
let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid)

(* SHUTDOWN over the wire (the server drains and exits), then wait;
   a server that does not exit in 10 s is killed. *)
let stop srv =
  (match Wire.connect srv.port with
  | Ok c ->
    ignore (Wire.request c "SHUTDOWN");
    Wire.close c
  | Error _ -> ( try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let t0 = now () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | p, _ when p = srv.pid -> ()
    | _ ->
      if now () -. t0 > 10.0 then begin
        log "server %d did not exit within 10 s of SHUTDOWN; killed" srv.pid;
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let connect srv =
  match Wire.connect srv.port with Ok c -> c | Error e -> failwith ("connect: " ^ e)

(* STATS as a table: "key: value" lines, and "count.<endpoint>" from
   the latency lines. *)
let stats c =
  let tbl = Hashtbl.create 64 in
  (match Wire.request c "STATS" with
  | Ok ("OK", body) ->
    List.iter
      (fun line ->
        match String.index_opt line ':' with
        | Some i ->
          Hashtbl.replace tbl (String.sub line 0 i)
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
        | None -> (
          match String.split_on_char ' ' line with
          | "latency_ms" :: ep :: count :: _ when String.length count > 6 ->
            Hashtbl.replace tbl ("count." ^ ep) (String.sub count 6 (String.length count - 6))
          | _ -> ()))
      (String.split_on_char '\n' body)
  | _ -> wrong "STATS failed");
  tbl

let stat tbl key =
  match Option.bind (Hashtbl.find_opt tbl key) int_of_string_opt with Some v -> v | None -> 0

(* ------------------------------------------------------------------ *)
(* Expected answers *)

type expect = {
  read : W.read;
  rank : Oracle.ranking;
  verified : (string, unit) Hashtbl.t;  (* reply bodies already checked *)
}

let rankings env reads =
  let by_xpath = Hashtbl.create 16 in
  Array.map
    (fun (read : W.read) ->
      let rank =
        match Hashtbl.find_opt by_xpath read.xpath with
        | Some r -> r
        | None ->
          let r = Oracle.rank ~cap:500 env (Tpq.Xpath.parse_exn read.xpath) in
          Hashtbl.replace by_xpath read.xpath r;
          r
      in
      { read; rank; verified = Hashtbl.create 4 })
    reads

let oracle_env docs = Flexpath.Ingest.env (W.ok (Flexpath.Ingest.of_docs docs))

let check_reply e body =
  if not (locked (fun () -> Hashtbl.mem e.verified body)) then
    match Result.bind (Oracle.parse_reply body) (Oracle.check e.rank ~k:e.read.k) with
    | Ok () -> locked (fun () -> Hashtbl.replace e.verified body ())
    | Error m -> wrong "%s: %s" e.read.line m

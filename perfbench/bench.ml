(* The benchmark client: one workload, one seed, one run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it starts [flexpath serve] as its own process on the
   workload's inputs, drives it over TCP and prints the end-to-end
   metrics; with --trace 1 it replays the same request sequence
   in-process through each layer's public functions and prints the
   per-layer metrics.  The last line of standard output is the JSON
   result; progress and diagnostics go to standard error. *)

module W = Workload
open Harness

(* ------------------------------------------------------------------ *)
(* Sending operations *)

(* Requests sent, by STATS endpoint, for the reconciliation with the
   server's own counters. *)
let sent = [| Atomic.make 0; Atomic.make 0 |]
let endpoints = [| "count.query"; "count.ping" |]

let endpoint line =
  if String.starts_with ~prefix:"QUERY " line then Some 0 else if line = "PING" then Some 1 else None

let snapshot_sent () = Array.map Atomic.get sent

let count line =
  Atomic.incr attempted;
  Option.iter (fun i -> Atomic.incr sent.(i)) (endpoint line)

(* A response: [Some body] on OK, [None] (counted failed) otherwise. *)
let outcome line r =
  let short s = String.sub s 0 (min 60 (String.length s)) in
  match r with
  | Ok ("OK", b) -> Some b
  | Ok (status, b) ->
    Atomic.incr failed;
    wrong "%s -> %s %s" (short line) status (short b);
    None
  | Error m ->
    Atomic.incr failed;
    wrong "%s -> %s" (short line) m;
    None

(* One request, waiting for its response. *)
let send c line =
  count line;
  outcome line (Wire.request c line)

let line_of ~expects = function W.Ping -> "PING" | W.Read i -> expects.(i).read.line

(* The response to one op of a read round, checked; a read's latency
   (post to response) goes on [lat]. *)
let on_reply ~expects lat op ~ms body =
  match (op, body) with
  | _, None -> ()
  | W.Ping, Some "pong" -> ()
  | W.Ping, Some b -> wrong "PING -> %S" b
  | W.Read i, Some b ->
    lat := ms :: !lat;
    check_reply expects.(i) b

(* Run [work c] on every connection: the first on this domain, the
   others on their own domains. *)
let on_all conns work =
  let ds = List.map (fun c -> Domain.spawn (fun () -> work c)) (List.tl conns) in
  let r0 = work (List.hd conns) in
  r0 :: List.map Domain.join ds

(* Closed loop over the sequence until [stop rounds elapsed] holds at a
   round boundary, so every class keeps its exact share.  Each
   connection keeps [window] requests in flight: it posts the next op
   as soon as a response arrives.  Returns the read latencies and the
   rate of each run of [span] consecutive ops (ops over the time between
   the dispatch of its first op and the next span's); the spans filled
   by the first [window] posts of every connection, and a last partial
   span, are left out. *)
let closed_loop ~conns ~window ~span ~expects ~seq:(len, op) ~stop =
  let next = ref 0 and stopped = ref false in
  let t0 = now () in
  let starts = ref [] in
  let take () =
    locked (fun () ->
        if !stopped then None
        else if !next mod len = 0 && !next > 0 && stop (!next / len) (now () -. t0) then begin
          if !next mod span = 0 then starts := now () :: !starts;
          stopped := true;
          None
        end
        else begin
          if !next mod span = 0 then starts := now () :: !starts;
          let i = !next in
          incr next;
          Some i
        end)
  in
  let lats =
    on_all conns (fun c ->
        let lat = ref [] and inflight = Queue.create () in
        let post () =
          match take () with
          | None -> false
          | Some i ->
            let o = op i in
            let line = line_of ~expects o in
            count line;
            (match Wire.post c line with
            | Ok () -> Queue.push (o, line, now ()) inflight
            | Error _ as r -> ignore (outcome line r));
            true
        in
        let rec fill n = if n > 0 && post () then fill (n - 1) in
        fill window;
        while not (Queue.is_empty inflight) do
          let o, line, t_post = Queue.pop inflight in
          let r = Wire.receive c in
          let ms = (now () -. t_post) *. 1000.0 in
          ignore (post ());
          on_reply ~expects lat o ~ms (outcome line r)
        done;
        !lat)
  in
  let rec rates acc = function
    | t1 :: (t0 :: _ as rest) -> rates ((float_of_int span /. (t1 -. t0)) :: acc) rest
    | _ -> acc
  in
  let fill = ((List.length conns * window) + span - 1) / span in
  (List.concat lats, List.filteri (fun i _ -> i >= fill) (rates [] !starts))

(* ------------------------------------------------------------------ *)
(* End-to-end run *)

let setups = 5

(* The server's own counters against the requests the client sent
   between two STATS scrapes. *)
let reconcile ~before ~after ~sent0 ~sent1 =
  Array.iteri
    (fun i key ->
      let server = stat after key - stat before key and client = sent1.(i) - sent0.(i) in
      if server <> client then wrong "STATS %s: server %d, client %d" key server client)
    endpoints;
  let failed = stat after "requests_failed" - stat before "requests_failed" in
  if failed <> 0 then wrong "STATS requests_failed: %d" failed

(* The answer cache over the timed phase: with every class cached
   before it and no write in it, each query is one answer hit; with the
   cache off, STATS says so. *)
let reconcile_cache kind ~before ~after ~queries =
  match kind with
  | W.Cold -> if Hashtbl.find_opt after "cache" <> Some "off" then wrong "STATS: cache not off"
  | W.Hot ->
    let d key = stat after key - stat before key in
    if d "cache_hits" <> queries || d "cache_misses" <> 0 then
      wrong "STATS cache: %d hits and %d misses for %d queries" (d "cache_hits") (d "cache_misses") queries

(* Every class against the oracle; a second send of each must return the
   same bytes (a cache hit when the cache is on), and the algorithms
   must agree on each (query, K). *)
let correctness_pass c expects =
  let first = Array.map (fun e -> send c e.read.line) expects in
  Array.iteri
    (fun i e ->
      match (first.(i), send c e.read.line) with
      | Some a, Some b ->
        check_reply e a;
        if a <> b then wrong "%s: repeated request answered differently" e.read.line
      | _ -> ())
    expects;
  Array.iteri
    (fun i e ->
      Array.iteri
        (fun j e' ->
          if j > i && e.read.xpath = e'.read.xpath && e.read.k = e'.read.k then
            match (first.(i), first.(j)) with
            | Some a, Some b -> (
              match (Oracle.parse_reply a, Oracle.parse_reply b) with
              | Ok a, Ok b when Oracle.same_scores a b -> ()
              | _ -> wrong "%s and %s disagree" e.read.line e'.read.line)
            | _ -> ())
        expects)
    expects

let end_to_end ~bin ~dir ~seconds (inp : W.inputs) =
  let kind = inp.kind in
  let expects = rankings (oracle_env inp.setup_docs) (W.reads kind) in
  (* set-up, [setups] times; the servers before the last are killed *)
  let setup_times =
    List.init setups (fun i ->
        let srv, s = spawn ~bin ~dir inp in
        log "set-up %d: %.3f s" (i + 1) s;
        if i < setups - 1 then kill srv;
        (srv, s))
  in
  let srv = fst (List.nth setup_times (setups - 1)) in
  Fun.protect ~finally:(fun () -> stop srv) @@ fun () ->
  let conns = List.init nproc (fun _ -> connect srv) in
  let c0 = List.hd conns in
  let st0 = stats c0 and sent0 = snapshot_sent () in
  let got = stat st0 "corpus_docs" in
  if got <> List.length inp.setup_docs then
    wrong "corpus_docs after set-up: server %d, expected %d" got (List.length inp.setup_docs);
  correctness_pass c0 expects;
  let seq = W.sequence kind ~seed:inp.seed in
  let loop = closed_loop ~conns ~window:(W.window kind) ~span:(W.span kind) ~expects ~seq in
  (* a fixed number of rounds, then the memory high-water mark *)
  ignore (loop ~stop:(fun rounds _ -> rounds >= W.warmup_rounds kind));
  let rss = vm_hwm_mb srv.pid in
  log "correctness pass and %d warm-up rounds done; VmHWM %.1f MiB" (W.warmup_rounds kind) rss;
  let st1 = stats c0 and sent1 = snapshot_sent () in
  let cpu0 = cpu_ms srv.pid and ops0 = Atomic.get attempted in
  let t_measure = now () in
  let reads, span_rates = loop ~stop:(fun _ elapsed -> elapsed >= seconds) in
  let measured_s = now () -. t_measure in
  let cpu = cpu_ms srv.pid -. cpu0 and ops = Atomic.get attempted - ops0 in
  let st2 = stats c0 and sent2 = snapshot_sent () in
  reconcile ~before:st0 ~after:st2 ~sent0 ~sent1:sent2;
  reconcile_cache kind ~before:st1 ~after:st2 ~queries:(sent2.(0) - sent1.(0));
  if stat st2 "corpus_docs" <> got then
    wrong "corpus_docs after the run: server %d, expected %d" (stat st2 "corpus_docs") got;
  List.iter Wire.close conns;
  let reads = sorted reads and rates = sorted span_rates in
  let closed_rate = pct rates 0.9 in
  log "closed loop: %.1f s, %d ops; ops/s over %d-op spans p10 %.1f, p50 %.1f, p90 %.1f; server CPU %.4f ms/op"
    measured_s ops (W.span kind) (pct rates 0.1) (pct rates 0.5) closed_rate (cpu /. float_of_int ops);
  log "reads: %d, p50 %.3f ms, p99 %.3f ms, p99.9 %.2f ms, max %.2f ms" (Array.length reads) (pct reads 0.5)
    (pct reads 0.99) (pct reads 0.999) (pct reads 1.0);
  [
    ("setup_s", median (List.map snd setup_times), "s");
    ("closed_qps", closed_rate, "1/s");
    ("server_rss_mb", rss, "MiB");
  ]

(* ------------------------------------------------------------------ *)

let json_result ~correct metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    (max 1 (Atomic.get attempted)) (Atomic.get failed) m

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let work = ref "perfbench/_work" and bin = ref "_build/default/bin/flexpath_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot-articles | cold-xmark");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--work", Arg.Set_string work, "DIR scratch directory");
      ("--server", Arg.Set_string bin, "PATH flexpath CLI binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match W.of_name !workload with
    | Some k -> k
    | None ->
      prerr_endline "bench: unknown --workload (hot-articles, cold-xmark)";
      exit 2
  in
  let dir = Filename.concat !work (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())) in
  mkdir_p dir;
  (match Oracle.self_test () with Ok () -> () | Error m -> wrong "oracle self-test: %s" m);
  let inp = W.build ~dir kind ~seed:!seed in
  log "inputs built";
  let metrics =
    if !trace = 0 then end_to_end ~bin:!bin ~dir ~seconds:!seconds inp
    else Traced.run ~bin:!bin ~dir ~seconds:!seconds inp
  in
  (* keep the spans and the server log; drop snapshots and logs *)
  Array.iter
    (fun f -> if f <> "spans.tsv" && f <> "server.log" then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  List.iter (fun e -> log "CHECK FAILED: %s" e) (List.rev !errors);
  if !n_errors > 10 then log "... %d check failures in all" !n_errors;
  print_endline (json_result ~correct:(!n_errors = 0) metrics)

(* The traced run: the workload's set-up and request sequence replayed
   in-process through each layer's public functions, with a span around
   every call, plus two wire measurements against a real server.
   Spans are recorded by this client around the calls into each layer;
   the program itself carries none.

   The top-K algorithms compile and evaluate chain entries inside one
   call.  To split that call, the "joins.compile" and "joins.exec" spans
   re-time, right after it, the same compile and evaluate calls on the
   same chain entries; they are recorded as children of the
   "flexpath.algo" span, whose self time is then the algorithm's own
   bookkeeping. *)

module W = Workload
module H = Harness
module Common = Flexpath.Common
module Protocol = Flexpath_server.Protocol

let span = Trace.span
let value = Trace.value
let count name = Trace.value name 1.0

(* Answer lines exactly as the server renders them. *)
let render = Oracle.render

let strategy algorithm k =
  match algorithm with
  | Flexpath.DPO -> Joins.Exec.exact_strategy
  | Flexpath.SSO -> { Joins.Exec.sort_on_score = true; bucketize = false; prune_k = Some k; prune_slack = 0.0 }
  | Flexpath.Hybrid -> { Joins.Exec.sort_on_score = false; bucketize = true; prune_k = Some k; prune_slack = 0.0 }

(* The chain entries an algorithm evaluated: DPO every entry up to its
   last pass; SSO/Hybrid the cut (entry i applies i operators) and the
   cuts it restarted from. *)
let evaluated algorithm (r : Common.result) =
  match algorithm with
  | Flexpath.DPO -> List.init r.passes Fun.id
  | Flexpath.SSO | Flexpath.Hybrid ->
    List.init (r.restarts + 1) (fun i -> r.relaxations_evaluated - r.restarts + i)

let run_algorithm algorithm ~plan env ~k q =
  let scheme = Flexpath.Ranking.Structure_first in
  match algorithm with
  | Flexpath.DPO -> Flexpath.Dpo.run ~plan env ~scheme ~k q
  | Flexpath.SSO -> Flexpath.Sso.run ~plan env ~scheme ~k q
  | Flexpath.Hybrid -> Flexpath.Hybrid.run ~plan env ~scheme ~k q

type state = {
  mutable corpus : Flexpath.Ingest.corpus;
  mutable cache : Flexpath.Qcache.t;  (* answers; never filled on cold-xmark *)
  cached : bool;
  wal : Flexpath.Wal.t;
  snap : string;
}

(* One QUERY, as the server handles it. *)
let read st (e : H.expect) =
  let env = Flexpath.Ingest.env st.corpus in
  match span "protocol.parse_request" (fun () -> Protocol.parse_request e.read.line) with
  | Ok (Protocol.Query { xpath; k; algorithm; _ }) ->
    let k = Option.value k ~default:10 and algorithm = Option.value algorithm ~default:Flexpath.Hybrid in
    let q = span "tpq.xpath_parse" (fun () -> Tpq.Xpath.parse_exn xpath) in
    let pk, ak =
      span "tpq.cache_key" (fun () ->
          let pk = Flexpath.plan_key ~algorithm ~scheme:Flexpath.Ranking.Structure_first q in
          (pk, Flexpath.answer_key ~plan_key:pk ~k ~budget:None ~executor:Joins.Exec.Auto))
    in
    let hit = span "qcache.lookup" (fun () -> Flexpath.Qcache.find_answer st.cache ak) in
    count "qcache.answer_lookups";
    let result =
      match hit with
      | Some r ->
        count "qcache.answer_hits";
        r
      | None ->
        let (res, plan, fresh, algo_id), _ =
          Trace.span_id "flexpath.run" (fun () ->
              let cached_plan =
                if st.cached then span "qcache.lookup" (fun () -> Flexpath.Qcache.find_plan st.cache pk)
                else None
              in
              let plan =
                match cached_plan with
                | Some p -> p
                | None ->
                  let p = span "relax.chain_build" (fun () -> Common.build_plan env q) in
                  value "relax.chain_len" (float_of_int (Array.length p.Common.chain));
                  if st.cached then Flexpath.Qcache.store_plan st.cache pk p;
                  p
              in
              let fresh = Array.map (fun a -> Atomic.get a = None) plan.Common.encoded in
              let res, algo_id =
                Trace.span_id "flexpath.algo" (fun () -> run_algorithm algorithm ~plan env ~k q)
              in
              (res, plan, fresh, algo_id))
        in
        if st.cached then Flexpath.Qcache.store_answer st.cache ak res;
        (* re-time the compile and evaluate calls the algorithm made *)
        let copy = { plan with encoded = Array.map (fun a -> Atomic.make (Atomic.get a)) plan.encoded } in
        let entries = evaluated algorithm res in
        List.iter (fun i -> if fresh.(i) then Atomic.set copy.encoded.(i) None) entries;
        List.iter
          (fun i ->
            if fresh.(i) then
              ignore (span ~parent:algo_id "joins.compile" (fun () -> Common.encoded_entry copy i)))
          entries;
        let strat = strategy algorithm k in
        List.iter
          (fun i ->
            span ~parent:algo_id "joins.exec" (fun () ->
                ignore (Common.evaluate_entry ~metrics:(Joins.Exec.fresh_metrics ()) env copy i strat)))
          entries;
        let m = res.Common.metrics in
        value "joins.tuples_produced" (float_of_int m.tuples_produced);
        value "joins.tuples_pruned" (float_of_int m.tuples_pruned);
        value "joins.score_sorted_tuples" (float_of_int m.score_sorted_tuples);
        value "joins.stream_elements" (float_of_int m.stream_elements);
        value "joins.holistic_runs" (float_of_int m.holistic_runs);
        value "flexpath.passes" (float_of_int res.passes);
        value "flexpath.restarts" (float_of_int res.restarts);
        res
    in
    let body = render env result.Common.answers in
    let buf = Buffer.create 1024 in
    span "protocol.write_response" (fun () -> Protocol.write_response buf Protocol.Ok_ body);
    value "protocol.response_bytes" (float_of_int (Buffer.length buf));
    body
  | _ -> failwith ("unexpected request " ^ e.read.line)

let ping () =
  ignore (span "protocol.parse_request" (fun () -> Protocol.parse_request "PING"));
  let buf = Buffer.create 16 in
  span "protocol.write_response" (fun () -> Protocol.write_response buf Protocol.Ok_ "pong");
  value "protocol.response_bytes" (float_of_int (Buffer.length buf))

let wrap id tree = Xmldom.Xml.element Flexpath.Ingest.doc_tag ~attrs:[ ("id", id) ] [ tree ]

(* One INGEST of a new inert document, as the server's write path
   handles it: parse, apply, WAL append with fsync; then a fresh answer
   cache. *)
let append st n =
  let id = Printf.sprintf "inert-%05d" n and xml = Xmldom.Xml.to_string W.inert in
  let parsed = span "ingest.parse_doc" (fun () -> W.ok (Flexpath.Ingest.parse_doc xml)) in
  let env = Flexpath.Ingest.env st.corpus in
  st.corpus <- span "ingest.append" (fun () -> W.ok (Flexpath.Ingest.add st.corpus ~id parsed));
  (* the incremental index and statistics extension inside it *)
  let first_new = Xmldom.Doc.size env.doc in
  let doc = Xmldom.Doc.append_trees env.doc [ wrap id parsed ] in
  ignore (span "fulltext.extend" (fun () -> Fulltext.Index.extend env.index doc ~first_new));
  ignore (span "stats.extend" (fun () -> Stats.extend env.stats doc ~first_new));
  let b0 = Flexpath.Wal.bytes st.wal in
  span "wal.append" (fun () -> W.ok (Flexpath.Wal.append st.wal (Flexpath.Wal.Add { id; xml })));
  value "wal.bytes_per_write" (float_of_int (Flexpath.Wal.bytes st.wal - b0));
  if st.cached then st.cache <- Flexpath.Qcache.create ()

let merge st =
  span "storage.save" (fun () -> W.ok (Flexpath.Storage.save (Flexpath.Ingest.env st.corpus) st.snap));
  W.ok (Flexpath.Wal.truncate st.wal)

(* Replayed WAL records, as the store's start-up applies them. *)
let replay_record corpus r =
  match r with
  | Flexpath.Wal.Add { id; xml } ->
    let tree = W.ok (Flexpath.Ingest.parse_doc xml) in
    let name = if Flexpath.Ingest.mem corpus id then "ingest.upsert" else "ingest.append" in
    span name (fun () -> W.ok (Flexpath.Ingest.add corpus ~id tree))
  | Flexpath.Wal.Delete { id } -> span "ingest.delete" (fun () -> W.ok (Flexpath.Ingest.remove corpus ~id))

let ms l = H.median l
let us l = H.median (List.map (fun x -> x *. 1000.0) l)

let run ~bin ~dir ~seconds (inp : W.inputs) =
  let kind = inp.kind in
  Trace.reset ();
  (* 1. the build path of the corpus document *)
  for _ = 1 to 3 do
    Trace.new_request ();
    let tree =
      span "xmldom.parse" (fun () ->
          match Xmldom.Xml_parser.parse inp.corpus_xml with
          | Ok t -> t
          | Error _ -> failwith "corpus document does not parse")
    in
    let doc = span "xmldom.doc_build" (fun () -> Xmldom.Doc.of_tree tree) in
    ignore (span "fulltext.index_build" (fun () -> Fulltext.Index.build doc));
    ignore (span "stats.build" (fun () -> Stats.build doc))
  done;
  (* 2. the server's set-up path: snapshot load, WAL replay *)
  let snap = Filename.concat dir "traced.snap" and walp = Filename.concat dir "traced.wal" in
  let setup () =
    Trace.new_request ();
    H.copy_file inp.snapshot snap;
    H.copy_file inp.wal walp;
    let env = span "storage.load" (fun () -> W.ok (Flexpath.Storage.load_env snap)) in
    let wal, replay = span "wal.replay" (fun () -> W.ok (Flexpath.Wal.open_ walp)) in
    let corpus =
      span "ingest.replay_apply" (fun () ->
          List.fold_left replay_record (W.ok (Flexpath.Ingest.of_env env)) replay.Flexpath.Wal.records)
    in
    (corpus, wal)
  in
  for _ = 1 to 2 do
    Flexpath.Wal.close (snd (setup ()))
  done;
  let corpus, wal = setup () in
  let reads = W.reads kind in
  let expects = H.rankings (Flexpath.Ingest.env corpus) reads in
  let st =
    {
      corpus;
      cache = Flexpath.Qcache.create ();
      cached = kind <> W.Cold;
      wal;
      snap;
    }
  in
  let len, op = W.sequence kind ~seed:inp.seed in
  let read_ops = List.filter_map (function W.Read i -> Some i | W.Ping -> None) (List.init len op) in
  (* 3. the wire: PING round trips and a pass of reads on one connection *)
  let inproc_p50, wire_p50 =
    let srv, _ = H.spawn ~bin ~dir inp in
    Fun.protect ~finally:(fun () -> H.stop srv) @@ fun () ->
    let c = H.connect srv in
    let timed f =
      let t0 = H.now () in
      f ();
      (H.now () -. t0) *. 1000.0
    in
    let wire_req line = ignore (Wire.request c line) in
    Array.iter (fun (r : W.read) -> wire_req r.line) reads;
    for _ = 1 to 2000 do
      value "server.ping_rtt" (timed (fun () -> wire_req "PING"))
    done;
    let wire = List.map (fun i -> timed (fun () -> wire_req reads.(i).line)) read_ops in
    Wire.close c;
    (* the same reads in-process, cache warmed the same way *)
    Array.iter
      (fun e ->
        Trace.new_request ();
        ignore (read st e))
      expects;
    let inproc =
      List.map
        (fun i ->
          Trace.new_request ();
          timed (fun () -> ignore (read st expects.(i))))
        read_ops
    in
    (H.median inproc, H.median wire)
  in
  (* 4. the request sequence, replayed for [seconds] in whole rounds *)
  let t0 = H.now () in
  let rounds = ref 0 in
  (* at most [max_spans] spans are kept in memory *)
  let max_spans = 400_000 in
  while !rounds = 0 || (H.now () -. t0 < seconds && !Trace.next_id < max_spans) do
    for j = 0 to len - 1 do
      Trace.new_request ();
      Atomic.incr H.attempted;
      match op ((!rounds * len) + j) with
      | W.Ping -> ping ()
      | W.Read i ->
        (* the replay must answer what the server answers *)
        H.check_reply expects.(i) (read st expects.(i))
    done;
    incr rounds
  done;
  let replay_s = H.now () -. t0 in
  (* tracing overhead: one more round untraced and one traced *)
  let time_round () =
    let t = H.now () in
    List.iter (fun i -> ignore (read st expects.(i))) read_ops;
    H.now () -. t
  in
  let n_spans = List.length !Trace.spans in
  let pairs = List.init 3 (fun _ -> (Trace.disabled time_round, time_round ())) in
  let untraced = H.median (List.map fst pairs) and traced = H.median (List.map snd pairs) in
  (* 5. the write path: inert appends, then a merge *)
  for n = 0 to W.traced_writes - 1 do
    Trace.new_request ();
    Atomic.incr H.attempted;
    append st n
  done;
  merge st;
  H.log "traced replay: %d rounds in %.1f s, %d spans; one round of reads %.1f ms traced vs %.1f ms untraced"
    !rounds replay_s n_spans (traced *. 1000.0) (untraced *. 1000.0);
  Flexpath.Wal.close st.wal;
  Trace.write (Filename.concat dir "spans.tsv");
  let self name = Trace.self_ms name in
  let dur name = Trace.dur_ms name in
  let vals = Trace.values_of in
  let sum l = List.fold_left ( +. ) 0.0 l in
  let lookups = sum (vals "qcache.answer_lookups") and hits = sum (vals "qcache.answer_hits") in
  H.log "qcache: %.0f answer hits of %.0f lookups" hits lookups;
  let passes = sum (vals "flexpath.passes") in
  [
    ("xmldom.parse_ms", ms (self "xmldom.parse"), "ms");
    ("xmldom.doc_build_ms", ms (self "xmldom.doc_build"), "ms");
    ("fulltext.index_build_ms", ms (self "fulltext.index_build"), "ms");
    ("stats.build_ms", ms (self "stats.build"), "ms");
    ("storage.load_ms", ms (self "storage.load"), "ms");
    ("wal.replay_ms", ms (self "wal.replay"), "ms");
    ("ingest.replay_apply_ms", ms (dur "ingest.replay_apply"), "ms");
    ("protocol.parse_request_us", us (self "protocol.parse_request"), "us");
    ("protocol.write_response_us", us (self "protocol.write_response"), "us");
    ("protocol.response_bytes", H.mean (vals "protocol.response_bytes"), "bytes");
    ("tpq.xpath_parse_us", us (self "tpq.xpath_parse"), "us");
    ("tpq.cache_key_us", us (self "tpq.cache_key"), "us");
    ("qcache.lookup_us", us (self "qcache.lookup"), "us");
    ("qcache.answer_hit_ratio", (if lookups > 0.0 then hits /. lookups else 0.0), "ratio");
    ("server.ping_rtt_us", us (vals "server.ping_rtt"), "us");
    ("server.wire_overhead_ms", wire_p50 -. inproc_p50, "ms");
    ("relax.chain_build_ms", ms (self "relax.chain_build"), "ms");
    ("relax.chain_len", H.mean (vals "relax.chain_len"), "count");
    ("joins.compile_ms", ms (Trace.self_ms ~req_sum:true "joins.compile"), "ms");
    ("joins.exec_ms", ms (Trace.self_ms ~req_sum:true "joins.exec"), "ms");
    ("joins.tuples_produced", H.mean (vals "joins.tuples_produced"), "count");
    ("joins.tuples_pruned", H.mean (vals "joins.tuples_pruned"), "count");
    ("joins.score_sorted_tuples", H.mean (vals "joins.score_sorted_tuples"), "count");
    ("joins.stream_elements", H.mean (vals "joins.stream_elements"), "count");
    ("joins.holistic_share", (if passes > 0.0 then sum (vals "joins.holistic_runs") /. passes else 0.0), "ratio");
    ("flexpath.run_ms", ms (dur "flexpath.run"), "ms");
    ("flexpath.algo_self_ms", ms (self "flexpath.algo"), "ms");
    ("flexpath.passes", H.mean (vals "flexpath.passes"), "count");
    ("flexpath.restarts", H.mean (vals "flexpath.restarts"), "count");
    ("ingest.parse_doc_ms", ms (self "ingest.parse_doc"), "ms");
    ("ingest.append_ms", ms (dur "ingest.append"), "ms");
    ("ingest.upsert_ms", ms (dur "ingest.upsert"), "ms");
    ("ingest.delete_ms", ms (dur "ingest.delete"), "ms");
    ("fulltext.extend_ms", ms (self "fulltext.extend"), "ms");
    ("stats.extend_ms", ms (self "stats.extend"), "ms");
    ("wal.append_ms", ms (self "wal.append"), "ms");
    ("wal.bytes_per_write", H.mean (vals "wal.bytes_per_write"), "bytes");
    ("storage.save_ms", ms (self "storage.save"), "ms");
  ]

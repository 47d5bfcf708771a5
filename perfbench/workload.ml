(* The two workloads: their inputs, made from the seed, and their
   fixed request sequences.

   Both serve a single-store live-ingest corpus from a snapshot plus a
   WAL tail, so every set-up pays snapshot load and WAL replay.  The
   workloads differ in corpus, read mix and cache:

   - hot-articles: an article collection with the answer cache on; a
     Zipf-ordered mix of article queries plus PING, sent by every
     connection in a closed loop.
   - cold-xmark: the XMark auction document with the cache off; the
     paper's Q1/Q2/Q3 at several K under DPO, SSO and Hybrid. *)

module Xml = Xmldom.Xml

type kind = Hot | Cold

let of_name = function "hot-articles" -> Some Hot | "cold-xmark" -> Some Cold | _ -> None

type read = { xpath : string; k : int; algorithm : Flexpath.algorithm; line : string }

type op = Ping | Read of int  (** index into [reads] *)

type write =
  | Append of string * Xml.t  (** new id *)
  | Upsert of string * Xml.t  (** existing id, new content *)
  | Delete of string

let ok = function Ok v -> v | Error e -> failwith (Flexpath.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Queries *)

let article_xpaths =
  [|
    "//article[./section[./algorithm and ./paragraph[.contains(\"xml\" and \"streaming\")]]]";
    "//article[.contains(\"xml\")]";
    "//section[./title and ./algorithm]";
    "//article[./abstract/paragraph[.contains(\"streaming\")]]";
    "//article[./section/algorithm and ./title]";
    "//section[./paragraph[.contains(\"xml\")] and ./algorithm]";
    "//article[./author and ./section/paragraph]";
    "//paragraph[.contains(\"streaming\")]";
  |]

let q1 = "//item[./description/parlist]"
let q2 = "//item[./description/parlist and ./mailbox/mail/text]"

let q3 =
  "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold and ./keyword and \
   ./emph] and ./name and ./incategory]"

let make_read ?(algorithm = Flexpath.Hybrid) xpath k =
  let algo = Flexpath.algorithm_to_string algorithm in
  { xpath; k; algorithm; line = Printf.sprintf "QUERY k=%d algo=%s %s" k algo xpath }

(* hot-articles: 16 classes, most popular first (Zipf weights 1/rank). *)
let hot_reads =
  Array.concat
    [
      Array.map (fun x -> make_read x 10) article_xpaths;
      Array.map (fun x -> make_read x 3) article_xpaths;
    ]

(* cold-xmark: (query, K) pairs whose relaxation chains run from 0 to
   about 30 steps, each under all three algorithms. *)
let cold_reads =
  Array.of_list
    (List.concat_map
       (fun (x, k) -> List.map (fun algorithm -> make_read ~algorithm x k) Flexpath.all_algorithms)
       [ (q1, 10); (q1, 100); (q2, 10); (q2, 100); (q3, 10) ]
    (* DPO on Q3 at K=50 evaluates 30 passes, about 2 s: left out *)
    @ [ make_read ~algorithm:Flexpath.SSO q3 50; make_read ~algorithm:Flexpath.Hybrid q3 50 ])

let reads = function Hot -> hot_reads | Cold -> cold_reads

(* ------------------------------------------------------------------ *)
(* Documents *)

let n_articles = 300
let xmark_items = 1000

(* The XMark document does not vary with the seed.  Its generator's seed
   moves the in-process cost of Q3 at K=50 between 201 and 301 ms (five
   generator seeds, median of five runs each): a per-seed document would
   make cold-xmark's spread a property of the document, not of the
   program.  The seed still orders the requests. *)
let xmark_seed = 1

(* Article [i] has archetype [i mod 6], so every corpus of 6n articles
   has the same make-up; the seed varies their text. *)
let archetypes =
  Xmark.Articles.[| Exact; Title_keywords; Algo_elsewhere; No_algorithm; Keywords_only; Irrelevant |]

let article rng i = Xmark.Articles.article rng archetypes.(i mod 6) i

(* A document with no text and no tag any query names: appending it
   changes neither statistics, penalties nor keyword scores. *)
let inert = Xml.element "memo" [ Xml.element "note" [] ]

let base_docs kind ~seed =
  let rng = Xmark.Prng.create (seed * 7919 + 17) in
  match kind with
  | Cold -> [ ("site", Xmark.Auction.site ~seed:xmark_seed ~items:xmark_items ()) ]
  | Hot -> List.init n_articles (fun i -> (Printf.sprintf "a%04d" i, article rng i))

let apply docs = function
  | Append (id, t) | Upsert (id, t) -> List.filter (fun (i, _) -> i <> id) docs @ [ (id, t) ]
  | Delete id -> List.filter (fun (i, _) -> i <> id) docs

(* The WAL tail replayed at every set-up: inert pads (two appends, an
   identical upsert, a delete), so the replay exercises every record
   kind, the rebuilding ones included, without changing an answer. *)
let wal_tail =
  [ Append ("pad-0", inert); Append ("pad-1", inert); Upsert ("pad-0", inert); Delete "pad-1" ]

let to_record = function
  | Append (id, t) | Upsert (id, t) -> Flexpath.Wal.Add { id; xml = Xml.to_string t }
  | Delete id -> Flexpath.Wal.Delete { id }

(* ------------------------------------------------------------------ *)
(* Files *)

type inputs = {
  kind : kind;
  seed : int;
  snapshot : string;  (* pristine snapshot *)
  wal : string;  (* pristine WAL tail *)
  corpus_xml : string;  (* the snapshot's corpus document, serialized *)
  setup_docs : (string * Xml.t) list;  (* acknowledged documents after set-up *)
}

let build ~dir kind ~seed =
  let docs = base_docs kind ~seed in
  let corpus = ok (Flexpath.Ingest.of_docs docs) in
  let snapshot = Filename.concat dir "base.snap" in
  let wal = Filename.concat dir "base.wal" in
  ok (Flexpath.Storage.save (Flexpath.Ingest.env corpus) snapshot);
  if Sys.file_exists wal then Sys.remove wal;
  let w, _ = ok (Flexpath.Wal.open_ wal) in
  List.iter (fun r -> ok (Flexpath.Wal.append w (to_record r))) wal_tail;
  Flexpath.Wal.close w;
  let corpus_xml = Xml.to_string (Xmldom.Doc.to_tree (Flexpath.Ingest.env corpus).Flexpath.Env.doc) in
  { kind; seed; snapshot; wal; corpus_xml; setup_docs = List.fold_left apply docs wal_tail }

(* ------------------------------------------------------------------ *)
(* Request sequences *)

(* Round [r] of the read loop.  Each read class appears a fixed number
   of times per round, so every run keeps exact shares; the seed and [r]
   only shuffle their order. *)
let round kind ~seed r =
  let rs = reads kind in
  let counts =
    match kind with
    | Hot ->
      Array.mapi (fun i _ -> max 2 (int_of_float (Float.round (120.0 /. float_of_int (i + 1))))) rs
    | Cold ->
      (* Q3 at K=50 costs more than the rest of the mix together: once
         each.  Q2 at K=100 is weighted so the median read falls inside
         its latency mode rather than between two modes. *)
      Array.map
        (fun (r : read) ->
          if r.k = 50 then 1 else if r.xpath = q1 then 1 else if r.xpath = q2 && r.k = 100 then 3 else 2)
        rs
  in
  let pings = match kind with Hot -> 40 | Cold -> 2 in
  let body =
    Array.concat
      (Array.make pings Ping :: Array.to_list (Array.mapi (fun i c -> Array.make c (Read i)) counts))
  in
  let rng = Xmark.Prng.create ((seed * 1_000_003) + r) in
  for i = Array.length body - 1 downto 1 do
    let j = Xmark.Prng.int rng (i + 1) in
    let t = body.(i) in
    body.(i) <- body.(j);
    body.(j) <- t
  done;
  body

(* The read sequence: 32 differently shuffled rounds, cycled, so that no
   one order of the mix decides which requests run side by side.  Op [i]
   is [op (i)]; runs stop only at multiples of [len]. *)
let sequence kind ~seed =
  let rounds = Array.init 32 (fun r -> round kind ~seed r) in
  let len = Array.length rounds.(0) in
  (len, fun i -> rounds.(i / len mod 32).(i mod len))

(* Rounds sent before the server's VmHWM is read, and before the timed
   closed loop: a fixed count, so the figure does not move with the
   throughput of the timed part (each request leaves a timer entry in
   the server until its read deadline). *)
let warmup_rounds = function Hot -> 60 | Cold -> 2

(* Requests each connection keeps in flight in the closed loop.  A
   cache hit costs the server about 0.1 ms, so with one request per
   connection the server's threads and the client's wake each other for
   every request and the CPUs idle in between; on a time-shared VM each
   of those wake-ups can wait for the host, and throughput fell by twice
   the stolen share.  With 32 queued on each connection the server finds
   the next request already buffered when it answers one.  A cold-xmark
   request keeps a worker busy for 10-400 ms on its own. *)
let window = function Hot -> 32 | Cold -> 1

(* Ops per span of the closed-loop rate.  The spans of one workload
   must hold the same work to be compared: every hot-articles op is a
   cache hit or a PING and costs about the same, so 16 ops (about 1 ms)
   will do; cold-xmark's reads cost 5-400 ms, so its span is a whole
   round. *)
let span kind = match kind with Hot -> 16 | Cold -> Array.length (round kind ~seed:0 0)

(* The traced run's write phase: this many inert appends, then a merge. *)
let traced_writes = 200

(* In-memory spans for the traced run.  A span has a name, a start, an
   end, the span that caused it and the request it belongs to; spans
   are kept in memory and written out when the run ends.  A span's self
   time is its duration minus the part of it its child spans cover. *)

type span = { id : int; name : string; parent : int; req : int; start : float; stop : float }

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let request = ref 0
let values : (string, float list) Hashtbl.t = Hashtbl.create 64

let enabled = ref true
let now = Clock.now
let new_request () = incr request

(* [f ()] with recording off — the untraced baseline of the overhead. *)
let disabled f =
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := true) f

(* [span_id name f] times [f ()] as a child of the innermost open span
   (or of [parent]) and returns its result with the new span's id. *)
let span_id ?parent name f =
  if not !enabled then (f (), 0)
  else begin
  incr next_id;
  let id = !next_id in
  let parent = match (parent, !stack) with Some p, _ -> p | None, p :: _ -> p | None, [] -> 0 in
  stack := id :: !stack;
  let start = now () in
  let finish () =
    let stop = now () in
    stack := List.tl !stack;
    spans := { id; name; parent; req = !request; start; stop } :: !spans
  in
  match f () with
  | r ->
    finish ();
    (r, id)
  | exception e ->
    finish ();
    raise e
  end

let span ?parent name f = fst (span_id ?parent name f)

(* Counts and sizes measured where the work happens. *)
let value name v =
  if !enabled then
  Hashtbl.replace values name (v :: Option.value ~default:[] (Hashtbl.find_opt values name))

let values_of name = Option.value ~default:[] (Hashtbl.find_opt values name)

(* Self time in ms of every span, grouped by name; [req_sum] sums the
   self times of one name within each request instead. *)
let children_cache = ref None

let children () =
  match !children_cache with
  | Some (n, t) when n == !spans -> t
  | _ ->
    let t = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        Hashtbl.replace t s.parent
          (s.stop -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt t s.parent)))
      !spans;
    children_cache := Some (!spans, t);
    t

let self_ms ?(req_sum = false) name =
  let children = children () in
  let own =
    List.filter_map
      (fun s ->
        if s.name = name then
          Some (s.req, (s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)) *. 1000.0)
        else None)
      !spans
  in
  if not req_sum then List.map snd own
  else begin
    let per = Hashtbl.create 256 in
    List.iter
      (fun (r, v) -> Hashtbl.replace per r (v +. Option.value ~default:0.0 (Hashtbl.find_opt per r)))
      own;
    Hashtbl.fold (fun _ v acc -> v :: acc) per []
  end

(* Whole durations in ms, children included. *)
let dur_ms name =
  List.filter_map (fun s -> if s.name = name then Some ((s.stop -. s.start) *. 1000.0) else None) !spans

let write path =
  let oc = open_out path in
  output_string oc "id\tname\tparent\trequest\tstart_s\tend_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%.6f\t%.6f\n" s.id s.name s.parent s.req s.start s.stop)
    (List.rev !spans);
  close_out oc

let reset () =
  spans := [];
  stack := [];
  Hashtbl.reset values

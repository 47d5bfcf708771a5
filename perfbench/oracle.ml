(* Answer checks shared by every workload.

   The reference scorer shares no code with the join engines or the
   top-K algorithms.  It evaluates every relaxation that
   [Relax.Space.enumerate] produces with the backtracking matcher of
   [Tpq.Semantics], gives each element the best structural score
   [Relax.Penalty.structural_score] assigns to a relaxation it answers,
   and adds the keyword score of the original query's contains
   predicates, computed at the element with [Fulltext.Index].  Ranking
   is structure-first (the server's default scheme), so a top-K reply
   is right when its (structural, keyword) score list equals the head
   of the oracle's list: ties may pick different elements, never
   different scores. *)

module Doc = Xmldom.Doc

type answer = { path : string; ss : float; ks : float; exact : bool }

(* Scores travel as "%.4f"; engines and oracle sum penalties in a
   different order, so allow one unit in the last printed place. *)
let tol = 1.5e-4

let marker = "  ss="

let parse_line line =
  let rec find i =
    if i < 0 then None
    else if String.sub line i (String.length marker) = marker then Some i
    else find (i - 1)
  in
  match (String.index_opt line '.', find (String.length line - String.length marker)) with
  | Some dot, Some i when dot + 2 <= i -> (
    let path = String.sub line (dot + 2) (i - dot - 2) in
    let tail = String.sub line (i + 2) (String.length line - i - 2) in
    match Scanf.sscanf tail "ss=%f ks=%f%s@\n" (fun ss ks suffix -> (ss, ks, suffix)) with
    | ss, ks, suffix -> Ok { path; ss; ks; exact = String.trim suffix = "exact" }
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
      Error ("bad scores in answer line: " ^ line))
  | _ -> Error ("malformed answer line: " ^ line)

let parse_reply body =
  if body = "" then Ok []
  else
    List.fold_right
      (fun line acc ->
        match (acc, parse_line line) with
        | Error e, _ | _, Error e -> Error e
        | Ok l, Ok a -> Ok (a :: l))
      (String.split_on_char '\n' body)
      (Ok [])

(* Structure-first order: structural score, then keyword score. *)
let before (ss1, ks1) (ss2, ks2) =
  ss1 > ss2 +. tol || (Float.abs (ss1 -. ss2) <= tol && ks1 > ks2 +. tol)

type ranking = {
  scored : (string * float * float) array;
      (* (path, structural, keyword), best first; on a partial lattice
         the structural scores are lower bounds *)
  by_path : (string, float * float) Hashtbl.t;  (* the same scores by path *)
  complete : bool;  (* the whole lattice was enumerated *)
  lattice : int;  (* relaxations evaluated *)
  exact_paths : (string, unit) Hashtbl.t;  (* paths of the original query's answers *)
  n_dist : int;  (* elements carrying the distinguished tag *)
}

let keyword_score (env : Flexpath.Env.t) q e =
  List.fold_left
    (fun acc (_, f) ->
      if Fulltext.Index.satisfies env.index f e then
        acc +. Fulltext.Index.normalized_score env.index f e
      else acc)
    0.0 (Tpq.Query.contains_preds q)

(* Rank every element that answers one of the first [cap] relaxations. *)
let rank ?(cap = 500) (env : Flexpath.Env.t) q =
  let hierarchy = env.hierarchy in
  let penv = Relax.Penalty.make ~hierarchy env.stats env.weights q in
  let space = Relax.Space.enumerate ~hierarchy ~max_queries:(cap + 1) q in
  let complete = List.length space <= cap in
  let space = List.filteri (fun i _ -> i < cap) space in
  let best = Hashtbl.create 256 in
  List.iter
    (fun (r, _) ->
      let s = Relax.Penalty.structural_score penv r in
      List.iter
        (fun e ->
          match Hashtbl.find_opt best e with
          | Some s' when s' >= s -> ()
          | _ -> Hashtbl.replace best e s)
        (Tpq.Semantics.answers ~hierarchy env.doc env.index r))
    space;
  let scored =
    Hashtbl.fold (fun e s acc -> (e, s, keyword_score env q e) :: acc) best []
    |> List.sort (fun (e1, s1, k1) (e2, s2, k2) ->
           match compare s2 s1 with
           | 0 -> ( match compare k2 k1 with 0 -> compare e1 e2 | c -> c)
           | c -> c)
    |> List.map (fun (e, s, k) -> (Doc.path_to_root env.doc e, s, k))
    |> Array.of_list
  in
  let exact_paths = Hashtbl.create 64 in
  List.iter
    (fun e -> Hashtbl.replace exact_paths (Doc.path_to_root env.doc e) ())
    (Tpq.Semantics.answers ~hierarchy env.doc env.index q);
  let n_dist =
    match (Tpq.Query.node q (Tpq.Query.distinguished q)).Tpq.Query.tag with
    | Some t -> Array.length (Doc.by_tag_name env.doc t)
    | None -> Doc.size env.doc
  in
  let by_path = Hashtbl.create (Array.length scored) in
  Array.iter (fun (p, s, k) -> Hashtbl.replace by_path p (s, k)) scored;
  { scored; by_path; complete; lattice = List.length space; exact_paths; n_dist }

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

let rec all f = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = f x in
    all f rest

let check_sorted answers =
  let rec go i = function
    | a :: (b :: _ as rest) ->
      if before (b.ss, b.ks) (a.ss, a.ks) then fail "answer %d outranks answer %d" (i + 1) i
      else go (i + 1) rest
    | _ -> Ok ()
  in
  go 1 answers

let check_exact_marks r answers =
  all
    (fun a ->
      if a.exact && not (Hashtbl.mem r.exact_paths a.path) then
        fail "%s is marked exact but does not match the original query" a.path
      else Ok ())
    answers

(* Each answer's own scores: equal to the oracle's on a full lattice; on
   a partial one the structural score may only be higher. *)
let check_answer_scores r answers =
  all
    (fun a ->
      match Hashtbl.find_opt r.by_path a.path with
      | None when r.complete -> fail "%s is not an answer to any relaxation" a.path
      | None -> Ok ()
      | Some (ss, ks) ->
        let ss_ok = if r.complete then Float.abs (a.ss -. ss) <= tol else a.ss >= ss -. tol in
        if ss_ok && Float.abs (a.ks -. ks) <= tol then Ok ()
        else fail "%s scores ss=%.4f ks=%.4f, oracle ss=%.4f ks=%.4f" a.path a.ss a.ks ss ks)
    answers

(* Exact check: the reply's score list is the head of the oracle's, and
   each answer carries its own oracle scores. *)
let check_exact r ~k answers =
  let want = min k (Array.length r.scored) in
  let* () =
    if List.length answers <> want then
      fail "%d answers, oracle expects %d" (List.length answers) want
    else Ok ()
  in
  let* () =
    all
      (fun (i, a) ->
        let _, ss, ks = r.scored.(i) in
        if Float.abs (a.ss -. ss) > tol || Float.abs (a.ks -. ks) > tol then
          fail "answer %d scores ss=%.4f ks=%.4f, oracle ss=%.4f ks=%.4f" (i + 1) a.ss a.ks ss ks
        else Ok ())
      (List.mapi (fun i a -> (i, a)) answers)
  in
  let* () = check_answer_scores r answers in
  check_exact_marks r answers

(* Property check for a query whose lattice is too large to enumerate;
   [r] is then a partial ranking. *)
let check_properties r ~k answers =
  let* () = check_sorted answers in
  let want = min k r.n_dist in
  let* () =
    if List.length answers <> want then
      fail "%d answers, expected min(K=%d, %d elements)" (List.length answers) k r.n_dist
    else Ok ()
  in
  let* () = check_exact_marks r answers in
  let* () = check_answer_scores r answers in
  match List.rev answers with
  | [] -> Ok ()
  | last :: _ ->
    let paths = Hashtbl.create 64 in
    List.iter (fun a -> Hashtbl.replace paths a.path ()) answers;
    all
      (fun (path, ss, ks) ->
        if before (ss, ks) (last.ss, last.ks) && not (Hashtbl.mem paths path) then
          fail "%s scores at least ss=%.4f ks=%.4f, above the K-th answer, but is missing" path ss
            ks
        else Ok ())
      (Array.to_list r.scored)

(* The check a reply gets: exact when the lattice was enumerated. *)
let check r ~k answers = if r.complete then check_exact r ~k answers else check_properties r ~k answers

let same_scores a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Float.abs (x.ss -. y.ss) <= tol && Float.abs (x.ks -. y.ks) <= tol) a b

(* ------------------------------------------------------------------ *)
(* Self-test: the checks accept the engines' replies on a tiny
   document and reject perturbed copies of them. *)

let render (env : Flexpath.Env.t) answers =
  String.concat "\n"
    (List.mapi
       (fun i a -> Format.asprintf "%2d. %a" (i + 1) (Flexpath.Answer.pp env.doc) a)
       answers)

let self_test () =
  let open Xmldom.Xml in
  let para s = element "paragraph" [ text s ] in
  let tree =
    element "c"
      [
        element "article"
          [ element "section" [ element "algorithm" []; para "xml streaming fun" ] ];
        element "article" [ element "section" [ para "xml streaming" ] ];
        element "article" [ element "abstract" [ text "xml streaming" ] ];
        element "article" [ element "section" [ para "none" ] ];
        element "article" [ element "section" [ element "algorithm" []; para "xml" ] ];
      ]
  in
  let env = Flexpath.Env.of_tree tree in
  let q =
    Tpq.Xpath.parse_exn
      "//article[./section[./algorithm and ./paragraph[.contains(\"xml\" and \"streaming\")]]]"
  in
  let r = rank env q in
  let k = 2 in
  let* () = if r.complete then Ok () else fail "self-test lattice did not finish" in
  let* replies =
    List.fold_left
      (fun acc algorithm ->
        let* l = acc in
        match Flexpath.run ~algorithm env ~k q with
        | Error e -> fail "self-test query failed: %s" (Flexpath.Error.to_string e)
        | Ok res -> (
          match parse_reply (render env res.Flexpath.Common.answers) with
          | Error e -> Error e
          | Ok answers -> Ok (answers :: l)))
      (Ok []) Flexpath.all_algorithms
  in
  let* () = all (fun a -> Result.map_error (( ^ ) "self-test: ") (check_exact r ~k a)) replies in
  let* () = all (fun a -> Result.map_error (( ^ ) "self-test: ") (check_properties r ~k a)) replies in
  let reply = List.hd replies in
  let bump i d =
    List.mapi (fun j a -> if j = i then { a with ks = a.ks +. d; ss = a.ss } else a) reply
  in
  let perturbed =
    [
      ("reversed", List.rev reply);
      ("last dropped", List.filteri (fun i _ -> i < List.length reply - 1) reply);
      ("keyword score moved", bump 1 0.01);
      ( "structural score moved",
        List.mapi (fun j a -> if j = 1 then { a with ss = a.ss -. 2.0 } else a) reply );
      ("false exact mark", List.map (fun a -> { a with exact = true }) reply);
      ( "other element",
        let other, _, _ = r.scored.(Array.length r.scored - 1) in
        List.mapi (fun j a -> if j = 1 then { a with path = other } else a) reply );
    ]
  in
  all
    (fun (what, answers) ->
      if Result.is_ok (check_exact r ~k answers) then
        fail "self-test: a %s reply passed the exact check" what
      else if Result.is_ok (check_properties r ~k answers) then
        fail "self-test: a %s reply passed the property check" what
      else Ok ())
    perturbed

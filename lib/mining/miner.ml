module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite

type config = {
  min_support : int;
  max_qubits : int;
  max_gates : int;
  min_gates : int;
  max_patterns : int;
  abstract_angles : bool;
}

let default_config =
  { min_support = 3;
    max_qubits = 3;
    max_gates = 6;
    min_gates = 2;
    max_patterns = 32;
    abstract_angles = true
  }

type found = {
  pattern : Pattern.t;
  occurrences : Pattern.occurrence list;
  support : int;
  coverage : int;
}

let abstract_label k =
  match Gate.params k with
  | [] -> Gate.name k
  | ps -> Printf.sprintf "%s(%s)" (Gate.name k)
            (String.concat "," (List.map (fun _ -> "~") ps))

let label_of cfg = if cfg.abstract_angles then abstract_label else Gate.mining_label

(* growth caps keeping pathological circuits cheap *)
let max_embeddings_per_pattern = 4000
let max_patterns_per_level = 4000

(* One code's embeddings at the current level. [support] is computed
   once, when the level is complete. *)
type entry = {
  pattern : Pattern.t;
  mutable occs : Pattern.occurrence list;  (* newest first *)
  mutable n_occs : int;
  mutable support : int;
}

(* Stamp marks: [fresh s] invalidates every earlier mark in O(1). *)
type stamps = { marks : int array; mutable gen : int }

let stamps n = { marks = Array.make (max 1 n) 0; gen = 0 }
let fresh s = s.gen <- s.gen + 1

let rec compare_nodes (a : int list) b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys -> if x <> y then compare x y else compare_nodes xs ys

(* Maximal disjoint subset, greedy by last node id (interval scheduling on
   node-id spans — spans that do not collide in ids never share nodes). *)
let disjoint_support marks occs =
  let spans =
    List.map
      (fun (o : Pattern.occurrence) ->
        (List.fold_left max (-1) o.Pattern.nodes, o.Pattern.nodes))
      occs
    |> List.sort (fun (la, a) (lb, b) ->
           if la <> lb then compare la lb else compare_nodes a b)
  in
  fresh marks;
  List.fold_left
    (fun acc (_, ns) ->
      if List.exists (fun v -> marks.marks.(v) = marks.gen) ns then acc
      else begin
        List.iter (fun v -> marks.marks.(v) <- marks.gen) ns;
        acc + 1
      end)
    0 spans

(* [qmarks] marks the members' qubits; [x] brings in the ones unmarked *)
let new_qubits qmarks dag x =
  List.fold_left
    (fun acc q -> if qmarks.marks.(q) = qmarks.gen then acc else acc + 1)
    0 (Dag.gate dag x).Gate.qubits

let mine ?(config = default_config) (c : Circuit.t) =
  let label = label_of config in
  let dag = Dag.of_circuit c in
  let n = Dag.n_nodes dag in
  let labels = Array.init n (fun v -> label (Dag.gate dag v).Gate.kind) in
  let node_label v = labels.(v) in
  let marks = stamps n and qmarks = stamps (Dag.n_qubits dag) in
  let support e =
    if e.support < 0 then e.support <- disjoint_support marks e.occs;
    e.support
  in
  (* canonicalise [cand] into [level]; true when its code is new *)
  let add ~cap level cand_list cand =
    let code, order = Pattern.canonical ~node_label dag cand in
    match Hashtbl.find_opt level code with
    | Some e ->
      if e.n_occs < cap then begin
        e.occs <- Pattern.occurrence_of_order dag cand_list order :: e.occs;
        e.n_occs <- e.n_occs + 1
      end;
      false
    | None ->
      Hashtbl.add level code
        { pattern = Pattern.pattern_of_order dag ~code order;
          occs = [ Pattern.occurrence_of_order dag cand_list order ];
          n_occs = 1;
          support = -1
        };
      true
  in
  (* level-1 embeddings: every node is a singleton occurrence *)
  let level = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    ignore (add ~cap:max_int level [ v ] [| v |])
  done;
  (* extend embedding [o] by each DAG neighbour, ascending, into [next] *)
  let grow ~tried next emitted (o : Pattern.occurrence) =
    let members = o.Pattern.nodes in
    fresh marks;
    fresh qmarks;
    let n_qubits = ref 0 in
    List.iter
      (fun v ->
        marks.marks.(v) <- marks.gen;
        List.iter
          (fun q ->
            if qmarks.marks.(q) <> qmarks.gen then begin
              qmarks.marks.(q) <- qmarks.gen;
              incr n_qubits
            end)
          (Dag.gate dag v).Gate.qubits)
      members;
    let neighbours = ref [] in
    let note u =
      if marks.marks.(u) <> marks.gen then begin
        marks.marks.(u) <- marks.gen;
        neighbours := u :: !neighbours
      end
    in
    List.iter
      (fun v ->
        List.iter note (Dag.succs dag v);
        List.iter note (Dag.preds dag v))
      members;
    List.iter
      (fun x ->
        (* a set over the qubit cap fails every time: no need to
           remember it *)
        if !n_qubits + new_qubits qmarks dag x <= config.max_qubits then begin
          let cand_list = List.merge compare members [ x ] in
          let cand = Array.of_list cand_list in
          if not (Hashtbl.mem tried cand) then begin
            Hashtbl.add tried cand ();
            if Rewrite.is_convex dag cand_list
               && add ~cap:max_embeddings_per_pattern next cand_list cand
            then incr emitted
          end
        end)
      (List.sort compare !neighbours)
  in
  let results = ref [] in
  let current = ref level in
  let size = ref 1 in
  while Hashtbl.length !current > 0 && !size < config.max_gates do
    incr size;
    let next = Hashtbl.create 64 in
    (* node sets already tried at this level: a set always canonicalises
       to the same code, so a repeat is dropped before any further work *)
    let tried = Hashtbl.create 1024 in
    let emitted = ref 0 in
    Hashtbl.iter
      (fun _code e ->
        (* apriori: only frequent embeddings grow *)
        if support e >= config.min_support && !emitted < max_patterns_per_level
        then List.iter (grow ~tried next emitted) e.occs)
      !current;
    (* record frequent patterns of this size *)
    Hashtbl.iter
      (fun _code e ->
        let support = support e in
        if support >= config.min_support
           && e.pattern.Pattern.size >= config.min_gates then
          results :=
            { pattern = e.pattern;
              occurrences =
                List.sort
                  (fun (a : Pattern.occurrence) b ->
                    compare_nodes a.Pattern.nodes b.Pattern.nodes)
                  e.occs;
              support;
              coverage = support * e.pattern.Pattern.size
            }
            :: !results)
      next;
    current := next
  done;
  List.sort
    (fun a b ->
      if a.coverage <> b.coverage then compare b.coverage a.coverage
      else if a.pattern.Pattern.size <> b.pattern.Pattern.size then
        compare b.pattern.Pattern.size a.pattern.Pattern.size
      else compare a.pattern.Pattern.code b.pattern.Pattern.code)
    !results
  |> fun l ->
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take config.max_patterns l

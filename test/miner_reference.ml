(* The APA miner and APA selection as they stood before the single-pass
   rewrite, kept verbatim as differential oracles for [Miner.mine],
   [Pattern.of_nodes] and [Apa.apply]. Each candidate node set is
   canonicalised by rendering every (capped) topological linearisation
   to a string, and only then dropped by a per-code [seen] table; APA
   selection rescans every taken span per occurrence and re-selects from
   scratch for each [M_tuned] prefix. Slow, obviously right. *)

module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite
module Pattern = Paqoc_mining.Pattern
module Miner = Paqoc_mining.Miner
module Apa = Paqoc_mining.Apa

(* ---- Pattern.of_nodes ---- *)

(* Render one linearisation: wires relabeled by first appearance. Returns
   (code, local gates, wire order). *)
let render ~label (apps : Gate.app list) =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let local (g : Gate.app) =
    let qs =
      List.map
        (fun q ->
          match Hashtbl.find_opt tbl q with
          | Some l -> l
          | None ->
            let l = Hashtbl.length tbl in
            Hashtbl.add tbl q l;
            order := q :: !order;
            l)
        g.Gate.qubits
    in
    { g with Gate.qubits = qs }
  in
  let gates = List.map local apps in
  let buf = Buffer.create 64 in
  List.iter
    (fun (g : Gate.app) ->
      Buffer.add_string buf (label g.Gate.kind);
      Buffer.add_char buf '@';
      Buffer.add_string buf
        (String.concat "," (List.map string_of_int g.Gate.qubits));
      Buffer.add_char buf ';')
    gates;
  (Buffer.contents buf, gates, Array.of_list (List.rev !order))

(* Enumerate topological linearisations of the induced sub-DAG, capped to
   keep worst-case parallel blocks cheap. *)
let linearisations dag nodes ~cap =
  let nodes = Array.of_list nodes in
  let n = Array.length nodes in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace index v i) nodes;
  let indeg = Array.make n 0 in
  let succ = Array.make n [] in
  Array.iteri
    (fun i v ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt index s with
          | Some j ->
            succ.(i) <- j :: succ.(i);
            indeg.(j) <- indeg.(j) + 1
          | None -> ())
        (Dag.succs dag v))
    nodes;
  let results = ref [] and count = ref 0 in
  let picked = Array.make n false in
  let deg = Array.copy indeg in
  let acc = Array.make n (-1) in
  let rec go depth =
    if !count >= cap then ()
    else if depth = n then begin
      incr count;
      results := Array.copy acc :: !results
    end
    else
      for i = 0 to n - 1 do
        if (not picked.(i)) && deg.(i) = 0 && !count < cap then begin
          picked.(i) <- true;
          List.iter (fun j -> deg.(j) <- deg.(j) - 1) succ.(i);
          acc.(depth) <- i;
          go (depth + 1);
          picked.(i) <- false;
          List.iter (fun j -> deg.(j) <- deg.(j) + 1) succ.(i)
        end
      done
  in
  go 0;
  List.map (fun order -> Array.to_list (Array.map (fun i -> nodes.(i)) order)) !results

let of_nodes ?(label = Gate.mining_label) dag nodes =
  let nodes = List.sort_uniq compare nodes in
  if nodes = [] then invalid_arg "Pattern.of_nodes: empty node set";
  let lins = linearisations dag nodes ~cap:120 in
  let best = ref None in
  List.iter
    (fun lin ->
      let apps = List.map (Dag.gate dag) lin in
      let code, gates, wires = render ~label apps in
      match !best with
      | Some (c, _, _) when String.compare c code <= 0 -> ()
      | _ -> best := Some (code, gates, wires))
    lins;
  match !best with
  | None -> invalid_arg "Pattern.of_nodes: no linearisation (cycle?)"
  | Some (code, gates, wires) ->
    let arity = Array.length wires in
    ( { Pattern.arity; size = List.length gates; gates; code },
      { Pattern.nodes; wire_map = wires } )

(* ---- Miner.mine ---- *)

let abstract_label k =
  match Gate.params k with
  | [] -> Gate.name k
  | ps -> Printf.sprintf "%s(%s)" (Gate.name k)
            (String.concat "," (List.map (fun _ -> "~") ps))

let label_of (cfg : Miner.config) =
  if cfg.Miner.abstract_angles then abstract_label else Gate.mining_label

let max_embeddings_per_pattern = 4000
let max_patterns_per_level = 4000

let node_set_key nodes = String.concat "," (List.map string_of_int nodes)

let qubit_count dag nodes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun v ->
      List.iter (fun q -> Hashtbl.replace tbl q ()) (Dag.gate dag v).Gate.qubits)
    nodes;
  Hashtbl.length tbl

(* Maximal disjoint subset, greedy by last node id (interval scheduling on
   node-id spans — spans that do not collide in ids never share nodes). *)
let disjoint_support occs =
  let spans =
    List.map
      (fun (o : Pattern.occurrence) ->
        let ns = o.Pattern.nodes in
        (List.fold_left max (-1) ns, ns))
      occs
    |> List.sort compare
  in
  let used = Hashtbl.create 64 in
  List.fold_left
    (fun acc (_, ns) ->
      if List.exists (Hashtbl.mem used) ns then acc
      else begin
        List.iter (fun v -> Hashtbl.replace used v ()) ns;
        acc + 1
      end)
    0 spans

let mine ?(config = Miner.default_config) (c : Circuit.t) =
  let label = label_of config in
  let dag = Dag.of_circuit c in
  let n = Dag.n_nodes dag in
  (* level-1 embeddings: every node is a singleton occurrence *)
  let level = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    let p, occ = of_nodes ~label dag [ v ] in
    let entry =
      match Hashtbl.find_opt level p.Pattern.code with
      | Some (p0, occs, seen) -> (p0, occ :: occs, seen)
      | None -> (p, [ occ ], Hashtbl.create 16)
    in
    Hashtbl.replace level p.Pattern.code entry
  done;
  let results = Hashtbl.create 64 in
  let current = ref level in
  let size = ref 1 in
  while Hashtbl.length !current > 0 && !size < config.Miner.max_gates do
    incr size;
    let next = Hashtbl.create 64 in
    let patterns_emitted = ref 0 in
    Hashtbl.iter
      (fun _code (_p, occs, _) ->
        (* apriori: only frequent embeddings grow *)
        if disjoint_support occs >= config.Miner.min_support
           && !patterns_emitted < max_patterns_per_level then
          List.iter
            (fun (o : Pattern.occurrence) ->
              let members = o.Pattern.nodes in
              let in_set v = List.mem v members in
              let neighbors =
                List.concat_map
                  (fun v -> Dag.succs dag v @ Dag.preds dag v)
                  members
                |> List.sort_uniq compare
                |> List.filter (fun v -> not (in_set v))
              in
              List.iter
                (fun x ->
                  let cand = List.sort compare (x :: members) in
                  if qubit_count dag cand <= config.Miner.max_qubits
                     && Rewrite.is_convex dag cand then begin
                    let p, occ = of_nodes ~label dag cand in
                    let k = p.Pattern.code in
                    match Hashtbl.find_opt next k with
                    | Some (p0, occs0, seen) ->
                      let nk = node_set_key cand in
                      if (not (Hashtbl.mem seen nk))
                         && List.length occs0 < max_embeddings_per_pattern
                      then begin
                        Hashtbl.replace seen nk ();
                        Hashtbl.replace next k (p0, occ :: occs0, seen)
                      end
                    | None ->
                      incr patterns_emitted;
                      let seen = Hashtbl.create 16 in
                      Hashtbl.replace seen (node_set_key cand) ();
                      Hashtbl.replace next k (p, [ occ ], seen)
                  end)
                neighbors)
            occs)
      !current;
    (* record frequent patterns of this size *)
    Hashtbl.iter
      (fun code (p, occs, _) ->
        let support = disjoint_support occs in
        if support >= config.Miner.min_support
           && p.Pattern.size >= config.Miner.min_gates then
          Hashtbl.replace results code
            { Miner.pattern = p;
              occurrences =
                List.sort
                  (fun (a : Pattern.occurrence) b ->
                    compare a.Pattern.nodes b.Pattern.nodes)
                  occs;
              support;
              coverage = support * p.Pattern.size
            })
      next;
    current := next
  done;
  Hashtbl.fold (fun _ f acc -> f :: acc) results []
  |> List.sort (fun (a : Miner.found) (b : Miner.found) ->
         if a.Miner.coverage <> b.Miner.coverage then
           compare b.Miner.coverage a.Miner.coverage
         else if a.Miner.pattern.Pattern.size <> b.Miner.pattern.Pattern.size
         then compare b.Miner.pattern.Pattern.size a.Miner.pattern.Pattern.size
         else compare a.Miner.pattern.Pattern.code b.Miner.pattern.Pattern.code)
  |> fun l ->
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  take config.Miner.max_patterns l

(* ---- Apa.apply ---- *)

let span (o : Pattern.occurrence) =
  let ns = o.Pattern.nodes in
  (List.fold_left min max_int ns, List.fold_left max (-1) ns)

(* Greedy non-interleaving selection: keep an occurrence only if its node
   span does not overlap any previously selected span. *)
let select_occurrences patterns =
  let selected = ref [] in
  let taken_spans = ref [] in
  List.iteri
    (fun pi (found : Miner.found) ->
      List.iter
        (fun occ ->
          let lo, hi = span occ in
          let clashes =
            List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !taken_spans
          in
          if not clashes then begin
            taken_spans := (lo, hi) :: !taken_spans;
            selected := (pi, occ) :: !selected
          end)
        found.Miner.occurrences)
    patterns;
  List.rev !selected

(* [mined] is the miner's output on [c] under [miner], so the selection
   can be checked apart from the miner *)
let apply ?(miner = Miner.default_config) ~mode ~mined (c : Circuit.t) =
  let none =
    { Apa.circuit = c; apa_gates = []; m_used = 0; substitutions = 0;
      gates_covered = 0 }
  in
  match mode with
  | Apa.M_zero -> none
  | _ ->
    let all = mined in
    let total_gates = Circuit.n_gates c in
    let admitted =
      match mode with
      | Apa.M_zero -> []
      | Apa.M_inf -> all
      | Apa.M_limit k -> List.filteri (fun i _ -> i < k) all
      | Apa.M_tuned ->
        (* smallest prefix whose covered gates exceed the remainder *)
        let rec grow k =
          if k > List.length all then all
          else begin
            let prefix = List.filteri (fun i _ -> i < k) all in
            let sel = select_occurrences prefix in
            let covered =
              List.fold_left
                (fun acc (_, (o : Pattern.occurrence)) ->
                  acc + List.length o.Pattern.nodes)
                0 sel
            in
            if covered > total_gates - covered then prefix else grow (k + 1)
          end
        in
        grow 1
    in
    if admitted = [] then none
    else begin
      let dag = Dag.of_circuit c in
      let label = label_of miner in
      let names =
        List.mapi
          (fun i (f : Miner.found) ->
            (Printf.sprintf "apa%d" (i + 1), f.Miner.pattern))
          admitted
      in
      let selected = select_occurrences admitted in
      let groups =
        List.map
          (fun (pi, (o : Pattern.occurrence)) ->
            let name = fst (List.nth names pi) in
            let p_occ, occ = of_nodes ~label dag o.Pattern.nodes in
            let custom = Pattern.to_custom p_occ ~name in
            let qubits = Array.to_list occ.Pattern.wire_map in
            (o.Pattern.nodes, Gate.app (Gate.Custom custom) qubits))
          selected
      in
      let circuit = Rewrite.contract c groups in
      let covered =
        List.fold_left (fun acc (nodes, _) -> acc + List.length nodes) 0 groups
      in
      let used_names =
        List.sort_uniq compare (List.map (fun (pi, _) -> pi) selected)
      in
      { Apa.circuit;
        apa_gates = List.map (List.nth names) used_names;
        m_used = List.length used_names;
        substitutions = List.length groups;
        gates_covered = covered
      }
    end

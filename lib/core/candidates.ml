module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite

let qubit_union (a : Gate.app) (b : Gate.app) =
  List.sort_uniq compare (a.Gate.qubits @ b.Gate.qubits)

(* Observation-1 compatibility: merging adds no new qubit to the larger
   operand set, so the merge cannot create false dependencies and is
   always (locally) beneficial. *)
let obs1_compatible ws dag u v ~maxN =
  let gu = Dag.gate dag u and gv = Dag.gate dag v in
  let union = qubit_union gu gv in
  let nu = List.length (List.sort_uniq compare gu.Gate.qubits) in
  let nv = List.length (List.sort_uniq compare gv.Gate.qubits) in
  List.length union <= maxN
  && List.length union = max nu nv
  && not (Dag.has_indirect_path_ws ws dag u v)

let preprocess (c : Circuit.t) ~maxN =
  let counter = ref 0 in
  let rec round c =
    let dag = Dag.of_circuit c in
    let n = Dag.n_nodes dag in
    let ws = Dag.reach_ws n in
    let used = Array.make n false in
    (* greedy span-disjoint selection keeps the batched contraction
       trivially acyclic. [u] only grows and every [v] in [succs u] is
       above it, so a candidate span [u, v] overlaps an earlier selected
       span exactly when the largest selected [hi] reaches [u] *)
    let max_hi = ref (-1) in
    let selected = ref [] in
    for u = 0 to n - 1 do
      if not used.(u) then
        List.iter
          (fun v ->
            if (not used.(u)) && (not used.(v)) && !max_hi < u
               && obs1_compatible ws dag u v ~maxN then begin
              used.(u) <- true;
              used.(v) <- true;
              max_hi := v;
              selected := (u, v) :: !selected
            end)
          (List.sort compare (Dag.succs dag u))
    done;
    match !selected with
    | [] -> c
    | sel ->
      let groups =
        List.map
          (fun (u, v) ->
            incr counter;
            let nodes = [ u; v ] in
            ( nodes,
              Rewrite.custom_of_nodes dag nodes
                ~name:(Printf.sprintf "pre%d" !counter) ))
          sel
      in
      round (fst (Rewrite.contract_mapped dag groups))
  in
  round c

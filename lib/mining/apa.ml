module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite

type mode = M_zero | M_tuned | M_inf | M_limit of int

type result = {
  circuit : Circuit.t;
  apa_gates : (string * Pattern.t) list;
  m_used : int;
  substitutions : int;
  gates_covered : int;
}

let mode_to_string = function
  | M_zero -> "M=0"
  | M_tuned -> "M=tuned"
  | M_inf -> "M=inf"
  | M_limit k -> Printf.sprintf "M=%d" k

let span (o : Pattern.occurrence) =
  let ns = o.Pattern.nodes in
  (List.fold_left min max_int ns, List.fold_left max (-1) ns)

module Spans = Map.Make (Int)

(* Greedy non-interleaving selection: keep an occurrence only if its node
   span does not overlap any previously selected span. Disjoint spans over
   a topological id order cannot create quotient cycles. The taken spans
   are disjoint, so only the one starting last at or before [hi] can
   overlap [lo, hi]. Returns the picks (pattern index, occurrence) in
   selection order and, per pattern, the original gates the picks up to
   and including it cover: greedy selection is prefix-stable, so the
   selection over the first [k] patterns is exactly the picks with index
   below [k]. *)
let select_occurrences patterns =
  let covered = Array.make (Array.length patterns) 0 in
  let taken = ref Spans.empty and selected = ref [] and total = ref 0 in
  Array.iteri
    (fun pi (found : Miner.found) ->
      List.iter
        (fun occ ->
          let lo, hi = span occ in
          let clashes =
            match Spans.find_last_opt (fun lo' -> lo' <= hi) !taken with
            | Some (_, hi') -> hi' >= lo
            | None -> false
          in
          if not clashes then begin
            taken := Spans.add lo hi !taken;
            selected := (pi, occ) :: !selected;
            total := !total + List.length occ.Pattern.nodes
          end)
        found.Miner.occurrences;
      covered.(pi) <- !total)
    patterns;
  (List.rev !selected, covered)

let apply ?(miner = Miner.default_config) ~mode (c : Circuit.t) =
  let none =
    { circuit = c; apa_gates = []; m_used = 0; substitutions = 0;
      gates_covered = 0 }
  in
  match mode with
  | M_zero -> none
  | _ ->
    let all = Array.of_list (Miner.mine ~config:miner c) in
    let selected, covered = select_occurrences all in
    let total_gates = Circuit.n_gates c in
    let n_all = Array.length all in
    (* how many of the ranked patterns are admitted *)
    let m =
      match mode with
      | M_zero -> 0
      | M_inf -> n_all
      | M_limit k -> max 0 (min k n_all)
      | M_tuned ->
        (* smallest prefix whose covered gates exceed the remainder *)
        let rec grow k =
          if k > n_all then n_all
          else
            let cov = covered.(k - 1) in
            if cov > total_gates - cov then k else grow (k + 1)
        in
        grow 1
    in
    if m = 0 then none
    else begin
      let dag = Dag.of_circuit c in
      let label = Miner.label_of miner in
      let names = Array.init m (fun i -> Printf.sprintf "apa%d" (i + 1)) in
      let used = Array.make m false in
      let groups =
        List.filter_map
          (fun (pi, (o : Pattern.occurrence)) ->
            if pi >= m then None
            else begin
              used.(pi) <- true;
              (* re-canonicalise this occurrence so its local body keeps
                 its own concrete angles under the shared pattern name *)
              let p_occ, occ = Pattern.of_nodes ~label dag o.Pattern.nodes in
              let custom = Pattern.to_custom p_occ ~name:names.(pi) in
              let qubits = Array.to_list occ.Pattern.wire_map in
              Some (o.Pattern.nodes, Gate.app (Gate.Custom custom) qubits)
            end)
          selected
      in
      let circuit = Rewrite.contract c groups in
      let apa_gates =
        List.filter_map
          (fun pi ->
            if used.(pi) then Some (names.(pi), all.(pi).Miner.pattern)
            else None)
          (List.init m Fun.id)
      in
      { circuit;
        apa_gates;
        m_used = List.length apa_gates;
        substitutions = List.length groups;
        gates_covered = covered.(m - 1)
      }
    end

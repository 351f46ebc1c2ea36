module Gate = Paqoc_circuit.Gate
module Dag = Paqoc_circuit.Dag

type t = {
  arity : int;
  size : int;
  gates : Gate.app list;
  code : string;
}

type occurrence = { nodes : int list; wire_map : int array }

let max_linearisations = 120

let rec index_of nodes v j =
  if j = Array.length nodes then -1
  else if nodes.(j) = v then j
  else index_of nodes v (j + 1)

(* [String.compare] on the first [la] bytes of [a] and [lb] bytes of [b] *)
let compare_prefix a la b lb =
  let rec go i =
    if i = la || i = lb then compare la lb
    else
      let c = Char.compare (Bytes.unsafe_get a i) (Bytes.unsafe_get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let canonical ~node_label dag nodes =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Pattern.of_nodes: empty node set";
  let labels = Array.map node_label nodes in
  let qubits = Array.map (fun v -> (Dag.gate dag v).Gate.qubits) nodes in
  (* the induced sub-DAG: local successors, unpicked-predecessor counts *)
  let succ = Array.make n [] and deg = Array.make n 0 in
  Array.iteri
    (fun i v ->
      List.iter
        (fun s ->
          let j = index_of nodes s 0 in
          if j >= 0 then begin
            succ.(i) <- j :: succ.(i);
            deg.(j) <- deg.(j) + 1
          end)
        (Dag.succs dag v))
    nodes;
  let n_operands = Array.fold_left (fun a qs -> a + List.length qs) 0 qubits in
  let bound =
    Array.fold_left (fun a l -> a + String.length l + 2) 0 labels
    + (n_operands * (1 + String.length (string_of_int n_operands)))
  in
  let buf = Bytes.create bound and best = Bytes.create bound in
  let best_len = ref (-1) and best_order = Array.make n 0 in
  (* pos.(d), nw.(d): bytes written and wires named before depth d *)
  let pos = Array.make (n + 1) 0 and nw = Array.make (n + 1) 0 in
  let wires = Array.make (max 1 n_operands) 0 and k = ref 0 in
  let picked = Array.make n false and order = Array.make n 0 in
  let count = ref 0 in
  let put p c = Bytes.unsafe_set buf p c; p + 1 in
  (* the local wire of qubit [q], naming it next if it is new *)
  let rec wire q l =
    if l = !k then begin wires.(l) <- q; incr k; l end
    else if wires.(l) = q then l
    else wire q (l + 1)
  in
  let rec operands p = function
    | [] -> p
    | q :: qs ->
      let l = wire q 0 in
      let p =
        if l < 10 then put p (Char.unsafe_chr (48 + l))
        else begin
          let l = string_of_int l in
          Bytes.blit_string l 0 buf p (String.length l);
          p + String.length l
        end
      in
      operands (if qs = [] then p else put p ',') qs
  in
  (* append local node [i]'s segment "label@w,w;" at depth [d] *)
  let write d i =
    let lab = labels.(i) in
    Bytes.blit_string lab 0 buf pos.(d) (String.length lab);
    k := nw.(d);
    let p = operands (put (pos.(d) + String.length lab) '@') qubits.(i) in
    pos.(d + 1) <- put p ';';
    nw.(d + 1) <- !k
  in
  (* depth-first over topological orders, lowest free local index first;
     the first [max_linearisations] complete orders count, and the last
     one visited among equal smallest codes wins *)
  let rec go d =
    if d = n then begin
      incr count;
      if !best_len < 0 || compare_prefix buf pos.(n) best !best_len <= 0
      then begin
        Bytes.blit buf 0 best 0 pos.(n);
        best_len := pos.(n);
        Array.blit order 0 best_order 0 n
      end
    end
    else
      for i = 0 to n - 1 do
        if (not picked.(i)) && deg.(i) = 0 && !count < max_linearisations
        then begin
          write d i;
          picked.(i) <- true;
          List.iter (fun j -> deg.(j) <- deg.(j) - 1) succ.(i);
          order.(d) <- nodes.(i);
          go (d + 1);
          picked.(i) <- false;
          List.iter (fun j -> deg.(j) <- deg.(j) + 1) succ.(i)
        end
      done
  in
  go 0;
  if !best_len < 0 then
    invalid_arg "Pattern.of_nodes: no linearisation (cycle?)";
  (Bytes.sub_string best 0 !best_len, best_order)

(* the order's qubits by first appearance *)
let wires_of_order dag order =
  let acc = ref [] in
  Array.iter
    (fun v ->
      List.iter
        (fun q -> if not (List.mem q !acc) then acc := q :: !acc)
        (Dag.gate dag v).Gate.qubits)
    order;
  Array.of_list (List.rev !acc)

let occurrence_of_order dag nodes order =
  { nodes; wire_map = wires_of_order dag order }

let pattern_of_order dag ~code order =
  let wires = wires_of_order dag order in
  let local q =
    let rec find l = if wires.(l) = q then l else find (l + 1) in
    find 0
  in
  let gates =
    Array.to_list
      (Array.map
         (fun v ->
           let g = Dag.gate dag v in
           { g with Gate.qubits = List.map local g.Gate.qubits })
         order)
  in
  { arity = Array.length wires; size = Array.length order; gates; code }

let of_nodes ?(label = Gate.mining_label) dag nodes =
  let nodes = List.sort_uniq compare nodes in
  let code, order =
    canonical
      ~node_label:(fun v -> label (Dag.gate dag v).Gate.kind)
      dag (Array.of_list nodes)
  in
  (pattern_of_order dag ~code order, occurrence_of_order dag nodes order)

let to_custom p ~name = Gate.make_custom ~name ~arity:p.arity p.gates

let interaction_weight p =
  List.fold_left
    (fun acc (g : Gate.app) -> acc +. Gate.interaction_weight g.Gate.kind)
    0.0 p.gates

let pp ppf p =
  Format.fprintf ppf "@[<v>pattern (%d wires, %d gates):@," p.arity p.size;
  List.iter (fun g -> Format.fprintf ppf "  %a@," Gate.pp_app g) p.gates;
  Format.fprintf ppf "@]"

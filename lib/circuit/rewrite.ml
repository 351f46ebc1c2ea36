let custom_of_apps apps ~name =
  let wires = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g : Gate.app) ->
      List.iter
        (fun q ->
          if not (Hashtbl.mem tbl q) then begin
            Hashtbl.add tbl q (Hashtbl.length tbl);
            wires := q :: !wires
          end)
        g.Gate.qubits)
    apps;
  let body =
    List.map
      (fun (g : Gate.app) ->
        { g with Gate.qubits = List.map (Hashtbl.find tbl) g.Gate.qubits })
      apps
  in
  let arity = Hashtbl.length tbl in
  Gate.app (Gate.Custom (Gate.make_custom ~name ~arity body)) (List.rev !wires)

let custom_of_nodes dag nodes ~name =
  custom_of_apps (List.map (Dag.gate dag) (List.sort_uniq compare nodes)) ~name

(* S is convex iff no node outside S is simultaneously a descendant of some
   member and an ancestor of another. Because node ids are topological, any
   such witness lies strictly between min(S) and max(S), so the scratch
   covers only the window [lo, hi] (index [v - lo]), not the whole DAG. *)
let is_convex dag nodes =
  match List.sort_uniq compare nodes with
  | [] | [ _ ] -> true
  | lo :: _ as sorted ->
    let hi = List.fold_left max lo sorted in
    let w = hi - lo + 1 in
    let in_set = Array.make w false in
    List.iter (fun v -> in_set.(v - lo) <- true) sorted;
    (* successors of window nodes have ids above [lo] *)
    let member s = s <= hi && in_set.(s - lo) in
    (* forward reachability from S within the window *)
    let desc = Array.make w false in
    let mark s = if s <= hi && not in_set.(s - lo) then desc.(s - lo) <- true in
    List.iter (fun v -> List.iter mark (Dag.succs dag v)) sorted;
    for v = lo + 1 to hi - 1 do
      if desc.(v - lo) then List.iter mark (Dag.succs dag v)
    done;
    (* a violation: an outside descendant that feeds back into S *)
    let ok = ref true in
    for v = lo + 1 to hi - 1 do
      if desc.(v - lo) && not in_set.(v - lo) then
        List.iter (fun s -> if member s then ok := false) (Dag.succs dag v)
    done;
    !ok

let contract_mapped dag groups =
  let n = Dag.n_nodes dag in
  (* group id per node: -1 = own node, otherwise index into groups *)
  let owner = Array.make n (-1) in
  List.iteri
    (fun gi (nodes, _) ->
      if not (is_convex dag nodes) then
        invalid_arg "Rewrite.contract: non-convex group";
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Rewrite.contract: bad node id";
          if owner.(v) <> -1 then
            invalid_arg "Rewrite.contract: overlapping groups";
          owner.(v) <- gi)
        nodes)
    groups;
  let groups_arr = Array.of_list groups in
  (* quotient nodes: representative = own id for singletons, or n + gi *)
  let rep v = if owner.(v) = -1 then v else n + owner.(v) in
  let n_quot = n + Array.length groups_arr in
  let indeg = Array.make n_quot 0 in
  let qsucc = Array.make n_quot [] in
  let add_edge a b =
    if a <> b && not (List.mem b qsucc.(a)) then begin
      qsucc.(a) <- b :: qsucc.(a);
      indeg.(b) <- indeg.(b) + 1
    end
  in
  let exists = Array.make n_quot false in
  for v = 0 to n - 1 do
    exists.(rep v) <- true;
    List.iter (fun s -> add_edge (rep v) (rep s)) (Dag.succs dag v)
  done;
  (* stable Kahn: pick the ready quotient node with the smallest original
     min-id *)
  let min_id = Array.make n_quot max_int in
  for v = 0 to n - 1 do
    let r = rep v in
    if v < min_id.(r) then min_id.(r) <- v
  done;
  let module Pq = Set.Make (struct
    type t = int * int (* min_id, node *)

    let compare = compare
  end) in
  let ready = ref Pq.empty in
  for q = 0 to n_quot - 1 do
    if exists.(q) && indeg.(q) = 0 then ready := Pq.add (min_id.(q), q) !ready
  done;
  let out = ref [] in
  let emitted = ref 0 in
  while not (Pq.is_empty !ready) do
    let ((_, q) as elt) = Pq.min_elt !ready in
    ready := Pq.remove elt !ready;
    incr emitted;
    (* origin token: the surviving node's old id, or [-(gi+1)] for the
       customized gate standing in for group [gi] *)
    let row =
      if q < n then (Dag.gate dag q, q)
      else (snd groups_arr.(q - n), -(q - n + 1))
    in
    out := row :: !out;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := Pq.add (min_id.(s), s) !ready)
      qsucc.(q)
  done;
  let n_exist = Array.fold_left (fun acc e -> if e then acc + 1 else acc) 0 exists in
  if !emitted <> n_exist then
    invalid_arg "Rewrite.contract: contraction created a cycle";
  let rows = List.rev !out in
  ( Circuit.make ~n_qubits:(Dag.n_qubits dag) (List.map fst rows),
    Array.of_list (List.map snd rows) )

let contract c groups = fst (contract_mapped (Dag.of_circuit c) groups)

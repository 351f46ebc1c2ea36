type t = {
  nq : int;
  gates : Gate.app array;
  succ : int list array;
  pred : int list array;
}

let of_circuit (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let succ = Array.make n [] and pred = Array.make n [] in
  let last = Array.make c.Circuit.n_qubits (-1) in
  for v = 0 to n - 1 do
    let srcs =
      List.filter_map
        (fun q ->
          let p = last.(q) in
          last.(q) <- v;
          if p >= 0 then Some p else None)
        gates.(v).Gate.qubits
    in
    List.iter
      (fun p ->
        if not (List.mem v succ.(p)) then begin
          succ.(p) <- v :: succ.(p);
          pred.(v) <- p :: pred.(v)
        end)
      (List.sort_uniq compare srcs)
  done;
  { nq = c.Circuit.n_qubits; gates; succ; pred }

let of_circuit_relaxed ~commute (c : Circuit.t) =
  let gates = Array.of_list c.Circuit.gates in
  let n = Array.length gates in
  let succ = Array.make n [] and pred = Array.make n [] in
  (* per-qubit history of gates, newest first *)
  let history = Array.make c.Circuit.n_qubits [] in
  let add_edge p v =
    if not (List.mem v succ.(p)) then begin
      succ.(p) <- v :: succ.(p);
      pred.(v) <- p :: pred.(v)
    end
  in
  for v = 0 to n - 1 do
    let qs = List.sort_uniq compare gates.(v).Gate.qubits in
    List.iter
      (fun q ->
        (* depend on every earlier non-commuting gate on this wire; a
           bounded scan with a hard edge at the cap keeps this linear *)
        let rec scan l steps =
          match l with
          | [] -> ()
          | p :: rest ->
            if steps > 50 then add_edge p v
            else begin
              if not (commute gates.(p) gates.(v)) then add_edge p v;
              scan rest (steps + 1)
            end
        in
        scan history.(q) 0;
        history.(q) <- v :: history.(q))
      qs
  done;
  { nq = c.Circuit.n_qubits; gates; succ; pred }

let n_nodes d = Array.length d.gates
let n_qubits d = d.nq
let gate d v = d.gates.(v)
let succs d v = d.succ.(v)
let preds d v = d.pred.(v)
let nodes d = List.init (n_nodes d) Fun.id

(* Reachability by forward DFS; node ids are topological so we can prune
   candidates with id <= target shortcuts. *)
let reachable_from d u ~skip_direct ~target =
  if u = target then not skip_direct
  else begin
    let seen = Array.make (n_nodes d) false in
    let rec dfs v =
      if v = target then true
      else if seen.(v) || v > target then false
      else begin
        seen.(v) <- true;
        List.exists dfs d.succ.(v)
      end
    in
    let starts =
      if skip_direct then List.filter (fun s -> s <> target) d.succ.(u)
      else d.succ.(u)
    in
    List.exists dfs starts
  end

let has_indirect_path d u v =
  if u = v then false
  else
    let u, v = if u < v then (u, v) else (v, u) in
    reachable_from d u ~skip_direct:true ~target:v

let reachable d u v =
  if u = v then true
  else if u > v then false
  else List.exists (fun s -> s = v) d.succ.(u)
       || reachable_from d u ~skip_direct:true ~target:v

(* Allocation-free reachability: a reusable workspace holding a stamp
   array (generation marks, so clearing between queries is free) and an
   explicit int stack replacing the recursion. The merge search asks
   one reachability question per candidate per iteration; the recursive
   DFS above allocates a fresh visited array each time, which is the
   dominant allocation of the whole search loop. *)
type reach_ws = {
  mutable stamp : int array;
  mutable stack : int array;
  mutable generation : int;
  mutable top : int;
}

let reach_ws n =
  let n = max 1 n in
  { stamp = Array.make n 0; stack = Array.make n 0; generation = 0; top = 0 }

let ws_fit ws n =
  if Array.length ws.stamp < n then begin
    ws.stamp <- Array.make n 0;
    ws.stack <- Array.make n 0;
    ws.generation <- 0
  end

(* The helpers below are top-level (not closures) and take every variable
   as a parameter on purpose: a query must not allocate, and closures,
   refs and the tuple swap all would. *)

(* push every unvisited successor with id below the target; report when
   the target itself shows up (ids are topological, so nothing past the
   target can reach it) *)
let rec ws_push ws target = function
  | [] -> false
  | w :: rest ->
    if w = target then true
    else begin
      if w < target && ws.stamp.(w) <> ws.generation then begin
        ws.stamp.(w) <- ws.generation;
        ws.stack.(ws.top) <- w;
        ws.top <- ws.top + 1
      end;
      ws_push ws target rest
    end

(* the seed round must not report the target: the direct edge u->v is the
   merge itself, only paths of length >= 2 invalidate it *)
let rec ws_seed ws target = function
  | [] -> ()
  | s :: rest ->
    if s < target && ws.stamp.(s) <> ws.generation then begin
      ws.stamp.(s) <- ws.generation;
      ws.stack.(ws.top) <- s;
      ws.top <- ws.top + 1
    end;
    ws_seed ws target rest

let rec ws_drain ws d target =
  if ws.top = 0 then false
  else begin
    ws.top <- ws.top - 1;
    if ws_push ws target d.succ.(ws.stack.(ws.top)) then true
    else ws_drain ws d target
  end

let has_indirect_path_ws ws d u v =
  if u = v then false
  else begin
    let a = if u < v then u else v in
    let b = if u < v then v else u in
    ws_fit ws (n_nodes d);
    ws.generation <- ws.generation + 1;
    ws.top <- 0;
    ws_seed ws b d.succ.(a);
    ws_drain ws d b
  end

type schedule = {
  est : float array;
  latency : float array;
  cp_after : float array;
  total : float;
  critical : bool array;
}

let schedule_latencies d lat =
  let n = n_nodes d in
  if Array.length lat <> n then
    invalid_arg "Dag.schedule_latencies: one latency per node expected";
  let est = Array.make n 0.0 in
  for v = 0 to n - 1 do
    List.iter
      (fun p -> if est.(p) +. lat.(p) > est.(v) then est.(v) <- est.(p) +. lat.(p))
      d.pred.(v)
  done;
  let cp_after = Array.make n 0.0 in
  for v = n - 1 downto 0 do
    List.iter
      (fun s ->
        let through = lat.(s) +. cp_after.(s) in
        if through > cp_after.(v) then cp_after.(v) <- through)
      d.succ.(v)
  done;
  let total = ref 0.0 in
  for v = 0 to n - 1 do
    let finish = est.(v) +. lat.(v) in
    if finish > !total then total := finish
  done;
  let eps = 1e-9 *. (1.0 +. !total) in
  let critical = Array.make n false in
  for v = 0 to n - 1 do
    critical.(v) <- est.(v) +. lat.(v) +. cp_after.(v) >= !total -. eps
  done;
  { est; latency = lat; cp_after; total = !total; critical }

let schedule d ~latency =
  schedule_latencies d (Array.init (n_nodes d) (fun v -> latency d.gates.(v)))

let critical_path d sched =
  let n = n_nodes d in
  if n = 0 then []
  else begin
    (* start from a critical source (est = 0) and greedily follow critical
       successors that continue a tight path *)
    let eps = 1e-9 *. (1.0 +. sched.total) in
    let tight v =
      sched.est.(v) +. sched.latency.(v) +. sched.cp_after.(v)
      >= sched.total -. eps
    in
    let start =
      let rec find v =
        if v >= n then None
        else if sched.est.(v) <= eps && tight v then Some v
        else find (v + 1)
      in
      find 0
    in
    match start with
    | None -> []
    | Some s ->
      let rec walk v acc =
        let next =
          List.find_opt
            (fun w ->
              tight w
              && sched.est.(w) >= sched.est.(v) +. sched.latency.(v) -. eps)
            (List.sort compare (succs d v))
        in
        match next with
        | Some w -> walk w (w :: acc)
        | None -> List.rev acc
      in
      walk s [ s ]
  end

let to_circuit d =
  Circuit.make ~n_qubits:d.nq (Array.to_list d.gates)

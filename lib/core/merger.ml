module Gate = Paqoc_circuit.Gate
module Rewrite = Paqoc_circuit.Rewrite
module Generator = Paqoc_pulse.Generator
module Obs = Paqoc_obs.Obs

type config = {
  max_n : int;
  top_k : int;
  max_iterations : int;
  prune_noncritical : bool;
}

let default_config =
  { max_n = 3; top_k = 1; max_iterations = 10_000; prune_noncritical = true }

type stats = {
  iterations : int;
  merges_committed : int;
  merges_rolled_back : int;
  initial_latency : float;
  final_latency : float;
}

module Engine = Criticality.Engine
module Pool = Paqoc_pulse.Pool

(* Everything about a candidate pair that depends only on the two
   gates' content — never on their position in the circuit, the
   schedule, or the pulse database — so it is computed once per pair
   and never goes stale. *)
type pair_info = {
  mkey : string;  (** canonical key of the merged group *)
  union_n : int;  (** qubit count of the merged gate *)
  pair_est : float;  (** Observation-1/2 merged-latency estimate *)
}

let n_qubits_of (g : Gate.app) =
  List.length (List.sort_uniq compare g.Gate.qubits)

(* the Observation-1/2 merged-latency estimate: the analytic model's
   price, raised to the corpus average for the merged size when the
   merge grows the qubit set *)
let compute_pair_info gen (gu : Gate.app) (gv : Gate.app) =
  let merged_group, _ = Generator.group_of_apps [ gu; gv ] in
  let union_n = List.length (Candidates.qubit_union gu gv) in
  let grows = union_n > max (n_qubits_of gu) (n_qubits_of gv) in
  let mkey = Generator.key merged_group in
  let model_est = Generator.estimate_latency ~key:mkey gen merged_group in
  let pair_est =
    if grows then Float.max model_est (Generator.avg_latency_for_size gen union_n)
    else model_est
  in
  { mkey; union_n; pair_est }

(* Edge slots: the pair_info of an edge lives at the engine's stable id
   of the edge's source wire ([view.slot]), tagged with the successor's
   uid. A neighbouring merge replaces the successor, the tag stops
   matching, and the entry is recomputed; by the view's identity contract
   (see [Criticality.Engine.view]) a matching tag always means the same
   pair of gates.
   The qubit union is filled in first; the merged key and estimate
   (a key serialisation and a model pricing) only once an edge passes
   the maxN cap and the Case-III pruning. Merged keys are interned: the
   blacklist is one flag per interned key. *)
type edges = {
  mutable tag : int array;  (** successor uid, or -1 *)
  mutable key : int array;  (** interned merged key, -1 before pricing *)
  mutable union : int array;
  mutable pair_est : float array;
  key_ids : (string, int) Hashtbl.t;
  mutable banned : bool array;  (** blacklist, by interned key *)
}

(* One iteration's scored candidates, flat, plus a max-heap of their
   indices for the selection walk. *)
type cands = {
  mutable m : int;
  mutable cu : int array;
  mutable cv : int array;
  mutable ckey : int array;
  mutable score : float array;
  mutable heap : int array;
  mutable hsize : int;
}

let grow a need fill =
  let len = Array.length a in
  if len >= need then a
  else begin
    let b = Array.make (max need (2 * len)) fill in
    Array.blit a 0 b 0 len;
    b
  end

let fit_edges ed need =
  if Array.length ed.tag < need then begin
    ed.tag <- grow ed.tag need (-1);
    ed.key <- grow ed.key need 0;
    ed.union <- grow ed.union need 0;
    ed.pair_est <- grow ed.pair_est need 0.0
  end

let set_info ed sl vuid info =
  let k =
    match Hashtbl.find_opt ed.key_ids info.mkey with
    | Some k -> k
    | None ->
      let k = Hashtbl.length ed.key_ids in
      Hashtbl.add ed.key_ids info.mkey k;
      ed.banned <- grow ed.banned (k + 1) false;
      k
  in
  ed.tag.(sl) <- vuid;
  ed.key.(sl) <- k;
  ed.union.(sl) <- info.union_n;
  ed.pair_est.(sl) <- info.pair_est

let push_cand c u v k score =
  let i = c.m in
  if i >= Array.length c.cu then begin
    c.cu <- grow c.cu (i + 1) 0;
    c.cv <- grow c.cv (i + 1) 0;
    c.ckey <- grow c.ckey (i + 1) 0;
    c.score <- grow c.score (i + 1) 0.0;
    c.heap <- grow c.heap (i + 1) 0
  end;
  c.cu.(i) <- u;
  c.cv.(i) <- v;
  c.ckey.(i) <- k;
  c.score.(i) <- score;
  c.m <- i + 1

(* [better c i j]: candidate [i] ranks before [j] in the search's total
   order — score descending, then (u, v) ascending — over the flat
   arrays. Scores that reach here are finite
   and above 1e-9. *)
let better c i j =
  let si = c.score.(i) and sj = c.score.(j) in
  si > sj
  || si = sj
     && (c.cu.(i) < c.cu.(j) || (c.cu.(i) = c.cu.(j) && c.cv.(i) < c.cv.(j)))

let rec sift_down c i =
  let l = (2 * i) + 1 in
  if l < c.hsize then begin
    let r = l + 1 in
    let b = if r < c.hsize && better c c.heap.(r) c.heap.(l) then r else l in
    if better c c.heap.(b) c.heap.(i) then begin
      let t = c.heap.(i) in
      c.heap.(i) <- c.heap.(b);
      c.heap.(b) <- t;
      sift_down c b
    end
  end

let heapify c =
  c.hsize <- c.m;
  for i = 0 to c.m - 1 do
    c.heap.(i) <- i
  done;
  for i = (c.m / 2) - 1 downto 0 do
    sift_down c i
  done

let pop_best c =
  let top = c.heap.(0) in
  c.hsize <- c.hsize - 1;
  c.heap.(0) <- c.heap.(c.hsize);
  sift_down c 0;
  top

(* One search's state: the engine, its scoring snapshot, the edge
   slots and this iteration's candidates. *)
type search = {
  config : config;
  gen : Generator.t;
  eng : Engine.e;
  w : Engine.view;
  ed : edges;
  cands : cands;
  mutable merge_counter : int;  (** names every attempted group *)
  mutable rolled_back : int;
}

let search ?(config = default_config) gen c =
  { config;
    gen;
    eng = Engine.create gen c;
    w = Engine.view ();
    ed =
      { tag = [||];
        key = [||];
        union = [||];
        pair_est = [||];
        key_ids = Hashtbl.create 1024;
        banned = [||]
      };
    cands =
      { m = 0; cu = [||]; cv = [||]; ckey = [||]; score = [||]; heap = [||];
        hsize = 0 };
    merge_counter = 0;
    rolled_back = 0
  }

(* Parallel candidate exploration: pair contents are pure, so missing
   edge slots can be computed on the pool in any order and filled in
   deterministic (edge) order — results are identical at any [jobs];
   only the wall clock changes. *)
let prefill s pool =
  let w = s.w and ed = s.ed in
  Engine.fill_view s.eng w;
  fit_edges ed w.Engine.n_slots;
  let missing = ref [] and n_missing = ref 0 in
  for k = w.Engine.m - 1 downto 0 do
    let sl = w.Engine.slot.(k) and vuid = w.Engine.dst_uid.(k) in
    if ed.tag.(sl) <> vuid || ed.key.(sl) < 0 then begin
      missing :=
        ( sl, vuid,
          Engine.gate s.eng w.Engine.src.(k),
          Engine.gate s.eng w.Engine.dst.(k) )
        :: !missing;
      incr n_missing
    end
  done;
  if !n_missing >= 256 then begin
    let arr = Array.of_list !missing in
    let chunk = 256 in
    let n_chunks = (Array.length arr + chunk - 1) / chunk in
    let results =
      Pool.map pool
        (fun ci ->
          let lo = ci * chunk in
          let len = min chunk (Array.length arr - lo) in
          Array.init len (fun i ->
              let _, _, gu, gv = arr.(lo + i) in
              compute_pair_info s.gen gu gv))
        (Array.init n_chunks Fun.id)
    in
    Array.iteri
      (fun ci infos ->
        Array.iteri
          (fun i info ->
            let sl, vuid, _, _ = arr.((ci * chunk) + i) in
            set_info ed sl vuid info)
          infos)
      results
  end

(* Candidate scoring over a snapshot of the committed engine state,
   into [s.cands]. Mirrors enumerate+rank+filter of the reference loop
   (test/oracle) with one deliberate twist: the validity DFS
   (has_indirect_path) is postponed to the selection walk below, where
   only the top few candidates ever need it — skipping an invalid
   candidate there is indistinguishable from its absence here, since
   scores are content+schedule functions and invalid candidates reserve
   no span. *)
let score_edges s =
  let w = s.w and ed = s.ed and cands = s.cands in
  Engine.fill_view s.eng w;
  fit_edges ed w.Engine.n_slots;
  cands.m <- 0;
  let include_iii = not s.config.prune_noncritical in
  let lat = w.Engine.lat and cp = w.Engine.cp and crit = w.Engine.crit in
  let src = w.Engine.src and dst = w.Engine.dst in
  let m = w.Engine.m in
  let k = ref 0 in
  while !k < m do
    (* the edges [k, run) all leave [u] *)
    let u = src.(!k) in
    let run = ref !k in
    while !run < m && src.(!run) = u do
      incr run
    done;
    (* alt_after_u for successor [v] is the largest L(s) + CP(s) over
       u's other successors: the top value, or the runner-up when [v]
       holds the top *)
    let top = ref 0.0 and top_v = ref (-1) and second = ref 0.0 in
    for j = !k to !run - 1 do
      let x = dst.(j) in
      let f = lat.(x) +. cp.(x) in
      if f > !top then begin
        top := f;
        top_v := x
      end
    done;
    for j = !k to !run - 1 do
      let x = dst.(j) in
      let f = lat.(x) +. cp.(x) in
      if x <> !top_v && f > !second then second := f
    done;
    for j = !k to !run - 1 do
      let v = dst.(j) in
      let sl = w.Engine.slot.(j) and vuid = w.Engine.dst_uid.(j) in
      if ed.tag.(sl) <> vuid then begin
        ed.tag.(sl) <- vuid;
        ed.union.(sl) <-
          List.length
            (Candidates.qubit_union (Engine.gate s.eng u) (Engine.gate s.eng v));
        ed.key.(sl) <- -1
      end;
      if ed.union.(sl) <= s.config.max_n then begin
        let case =
          match (crit.(u), crit.(v)) with
          | true, true -> `I
          | true, false | false, true -> `II
          | false, false -> `III
        in
        let keep = match case with `III -> include_iii | `I | `II -> true in
        if keep then begin
          if ed.key.(sl) < 0 then
            set_info ed sl vuid
              (compute_pair_info s.gen (Engine.gate s.eng u)
                 (Engine.gate s.eng v));
          let score =
            Ranking.score_value ~case ~u_critical:crit.(u) ~l_u:lat.(u)
              ~l_v:lat.(v) ~cp_v:cp.(v)
              ~alt_after_u:(if v = !top_v then !second else !top)
              ~est:ed.pair_est.(sl)
          in
          if score > 1e-9 && not ed.banned.(ed.key.(sl)) then
            push_cand cands u v ed.key.(sl) score
        end
      end
    done;
    k := !run
  done

(* Span-disjoint top-k selection in rank order, popping the heap only
   as far as the walk goes, with validity checked lazily. [any_valid]
   reproduces the reference's termination test (its scored list was
   empty iff no valid candidate survived). The batch is
   [(u, v, interned merged key)], best first. *)
let select s =
  let cands = s.cands in
  heapify cands;
  let spans = ref [] and picked = ref 0 in
  let batch = ref [] and any_valid = ref false in
  while cands.hsize > 0 && not (!picked >= s.config.top_k && !any_valid) do
    let i = pop_best cands in
    let u = cands.cu.(i) and v = cands.cv.(i) in
    let valid () = not (Engine.has_indirect_path s.eng u v) in
    if !picked >= s.config.top_k then begin
      (* only probing whether any valid candidate exists *)
      if valid () then any_valid := true
    end
    else if List.exists (fun (lo', hi') -> u <= hi' && lo' <= v) !spans then
      ()
    else if valid () then begin
      any_valid := true;
      spans := (u, v) :: !spans;
      incr picked;
      batch := (u, v, cands.ckey.(i)) :: !batch
    end
  done;
  (List.rev !batch, !any_valid)

let score_and_select s =
  score_edges s;
  List.map (fun (u, v, _) -> (u, v)) (fst (select s))

let eps = 1e-6

let rec attempt s prev_total batch =
  match batch with
  | [] -> None
  | _ ->
    let groups =
      List.map
        (fun (u, v, _) ->
          s.merge_counter <- s.merge_counter + 1;
          ( [ u; v ],
            Rewrite.custom_of_apps
              [ Engine.gate s.eng u; Engine.gate s.eng v ]
              ~name:(Printf.sprintf "grp%d" s.merge_counter) ))
        batch
    in
    (* Algorithm 1 line 18: pulses for the new customized gates are
       generated whether or not the trial is kept — exactly as the
       reference does, so the pulse database (and any shared cache
       journal) sees the same keys in the same order *)
    List.iter
      (fun (_, app) ->
        let group, _ = Generator.group_of_apps [ app ] in
        ignore (Generator.generate s.gen group))
      groups;
    let new_total = Engine.stage s.eng groups in
    if new_total <= prev_total +. eps then begin
      Engine.commit s.eng;
      Some (new_total, List.length batch)
    end
    else begin
      Engine.discard s.eng;
      if List.length batch > 1 then
        (* the batch interfered with itself: retry with the single
           best candidate *)
        attempt s prev_total [ List.hd batch ]
      else begin
        (* even the best single merge regressed: the estimate was
           optimistic — roll back and blacklist *)
        s.rolled_back <- s.rolled_back + 1;
        let _, _, k = List.hd batch in
        s.ed.banned.(k) <- true;
        None
      end
    end

let run ?(config = default_config) ?(jobs = 1) gen c =
  let s = search ~config gen c in
  let committed = ref 0 and iterations = ref 0 in
  let initial_latency = Engine.total s.eng in
  (* Worth dispatching pair pricing only when a single pair is expensive
     to price — on the analytic Model backend a pair costs microseconds,
     so dispatching it loses twice: the chunk round-trip costs more than
     the pricing, and the spawned worker domains then tax every minor
     collection the serial score/attempt phases run (measured 1.7x on a
     warm all-cache-hit suite). *)
  let pool_pays = jobs > 1 && not (Generator.pricing_is_analytic gen) in
  let rec loop pool prev_total =
    if !iterations >= config.max_iterations then ()
    else begin
      incr iterations;
      Obs.count "merger.iterations";
      Engine.refresh s.eng;
      if pool_pays then Obs.with_span "merger.prefill" (fun () -> prefill s pool);
      Obs.with_span "merger.score" (fun () -> score_edges s);
      let batch, any_valid =
        Obs.with_span "merger.select" (fun () -> select s)
      in
      match batch with
      | [] -> if any_valid then loop pool prev_total
      | _ -> (
        match
          Obs.with_span "merger.attempt" (fun () -> attempt s prev_total batch)
        with
        | Some (new_total, k) ->
          committed := !committed + k;
          loop pool new_total
        | None -> loop pool prev_total)
    end
  in
  Pool.with_pool ~jobs (fun pool ->
      Obs.with_span "merger.search" (fun () -> loop pool initial_latency));
  Engine.refresh s.eng;
  let final = Engine.circuit s.eng in
  let final_latency = Engine.total s.eng in
  Obs.count ~n:!committed "merger.committed";
  Obs.count ~n:s.rolled_back "merger.rolled_back";
  ( final,
    { iterations = !iterations;
      merges_committed = !committed;
      merges_rolled_back = s.rolled_back;
      initial_latency;
      final_latency
    } )

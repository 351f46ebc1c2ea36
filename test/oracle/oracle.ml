(* The criticality search's slow oracles, kept out of the library.

   [enumerate], [score]/[rank] and [run_reference] are the original
   search: one full [Criticality.analyze] per iteration and per attempted
   contraction, candidates enumerated and ranked from scratch each time.
   [Merger.run] must replay exactly its decisions (test_search holds the
   two bit-identical). [compile] is a reference compile of one request,
   composed from the library's public stages the way perfbench's replay
   composes them, with [run_reference] as the search; the suite
   equivalence test holds its rows and cache bytes to [Service.compile]'s. *)

module Gate = Paqoc_circuit.Gate
module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite
module Generator = Paqoc_pulse.Generator
module Cache = Paqoc_pulse.Cache
module Pricing = Paqoc_pulse.Pricing
module Protocol = Paqoc_pulse.Protocol
module Device = Paqoc_topology.Device
module Coupling = Paqoc_topology.Coupling
module Transpile = Paqoc_topology.Transpile
module Apa = Paqoc_mining.Apa
module Suite = Paqoc_benchmarks.Suite
module Service = Paqoc_service.Service
module Criticality = Paqoc.Criticality
module Candidates = Paqoc.Candidates
module Ranking = Paqoc.Ranking
module Merger = Paqoc.Merger

(* ------------------------------------------------------------------ *)
(* Candidates and ranking                                              *)
(* ------------------------------------------------------------------ *)

(* A surviving merge candidate: a DAG edge [u -> v]. *)
type candidate = {
  u : int;  (** earlier node id *)
  v : int;  (** later node id, direct successor of [u] *)
  case : [ `I | `II | `III ];
      (** [`III] only appears when pruning is disabled (ablations) *)
  n_qubits : int;  (** qubit count of the merged gate *)
}

type scored = {
  candidate : candidate;
  score : float;  (** estimated latency reduction, device dt *)
  est_merged_latency : float;
}

(* Total order: score descending, then (u, v) ascending — candidates are
   distinct pairs, so the sorted sequence is unique whatever the input
   order. [Merger]'s selection heap pops its flat candidate arrays in
   this same order. *)
let compare_scored a b =
  if a.score <> b.score then compare b.score a.score
  else compare (a.candidate.u, a.candidate.v) (b.candidate.u, b.candidate.v)

let sort_scored scored = List.sort compare_scored scored

(* The surviving candidates of an analyzed circuit: DAG edges within the
   size cap with no indirect path, Case III dropped unless
   [include_case_iii] (the pruning ablation). *)
let enumerate ?(include_case_iii = false) (crit : Criticality.t) ~maxN =
  let dag = crit.Criticality.dag in
  let n = Dag.n_nodes dag in
  let out = ref [] in
  for u = 0 to n - 1 do
    List.iter
      (fun v ->
        let gu = Dag.gate dag u and gv = Dag.gate dag v in
        let union = Candidates.qubit_union gu gv in
        if List.length union <= maxN && not (Dag.has_indirect_path dag u v)
        then
          match Criticality.case_of crit u v with
          | `III ->
            if include_case_iii then
              out := { u; v; case = `III; n_qubits = List.length union } :: !out
          | (`I | `II) as case ->
            out := { u; v; case; n_qubits = List.length union } :: !out)
      (Dag.succs dag u)
  done;
  List.rev !out

let n_qubits_of (g : Gate.app) =
  List.length (List.sort_uniq compare g.Gate.qubits)

(* Prices one candidate from the analysis, through the library's one copy
   of the Section V-A formula. *)
let score gen (crit : Criticality.t) (cand : candidate) =
  let dag = crit.Criticality.dag in
  let u = cand.u and v = cand.v in
  let gu = Dag.gate dag u and gv = Dag.gate dag v in
  let l_u = Criticality.latency crit u
  and l_v = Criticality.latency crit v in
  let merged_group, _ = Generator.group_of_apps [ gu; gv ] in
  let grows =
    cand.n_qubits > max (n_qubits_of gu) (n_qubits_of gv)
  in
  let est =
    let model_est = Generator.estimate_latency gen merged_group in
    if grows then
      (* Observation 2: a bigger customized gate is, on average, slower —
         price it at least at the corpus average for its size *)
      Float.max model_est
        (Generator.avg_latency_for_size gen cand.n_qubits)
    else model_est
  in
  (* longest continuation through u's other successors (the paper's C) *)
  let alt_after_u =
    List.fold_left
      (fun acc c ->
        if c = v then acc
        else
          Float.max acc
            (Criticality.latency crit c +. Criticality.cp_after crit c))
      0.0 (Dag.succs dag u)
  in
  let cp_v = Criticality.cp_after crit v in
  let score =
    Ranking.score_value ~case:cand.case
      ~u_critical:(Criticality.is_critical crit u) ~l_u ~l_v ~cp_v
      ~alt_after_u ~est
  in
  { candidate = cand; score; est_merged_latency = est }

(* scored and sorted best-first (ties: earlier pair first) *)
let rank gen crit cands = sort_scored (List.map (score gen crit) cands)

(* ------------------------------------------------------------------ *)
(* The reference search                                                *)
(* ------------------------------------------------------------------ *)

let merged_key dag u v =
  let group, _ = Generator.group_of_apps [ Dag.gate dag u; Dag.gate dag v ] in
  Generator.key group

let run_reference ?(config = Merger.default_config) gen c =
  let blacklist = Hashtbl.create 64 in
  let merge_counter = ref 0 in
  let committed = ref 0 and rolled_back = ref 0 and iterations = ref 0 in
  let initial_latency = Criticality.total (Criticality.analyze gen c) in
  let eps = 1e-6 in
  let contract_batch crit batch =
    let dag = crit.Criticality.dag in
    let groups =
      List.map
        (fun (s : scored) ->
          incr merge_counter;
          let nodes = [ s.candidate.u; s.candidate.v ] in
          ( nodes,
            Rewrite.custom_of_nodes dag nodes
              ~name:(Printf.sprintf "grp%d" !merge_counter) ))
        batch
    in
    let newc = Rewrite.contract crit.Criticality.circuit groups in
    (* generate the pulses for the freshly created customized gates now —
       Algorithm 1 line 18 *)
    List.iter
      (fun (_, app) ->
        let group, _ = Generator.group_of_apps [ app ] in
        ignore (Generator.generate gen group))
      groups;
    newc
  in
  let rec loop c prev_total =
    if !iterations >= config.Merger.max_iterations then c
    else begin
      incr iterations;
      let crit = Criticality.analyze gen c in
      let cands =
        enumerate
          ~include_case_iii:(not config.Merger.prune_noncritical)
          crit ~maxN:config.Merger.max_n
      in
      let scored =
        rank gen crit cands
        |> List.filter (fun (s : scored) ->
               s.score > 1e-9
               && not
                    (Hashtbl.mem blacklist
                       (merged_key crit.Criticality.dag
                          s.candidate.u
                          s.candidate.v)))
      in
      if scored = [] then c
      else begin
        (* pick up to top_k span-disjoint candidates *)
        let spans = ref [] in
        let batch =
          List.filter
            (fun (s : scored) ->
              let lo = s.candidate.u
              and hi = s.candidate.v in
              let lo, hi = (min lo hi, max lo hi) in
              if List.length !spans >= config.Merger.top_k then false
              else if
                List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !spans
              then false
              else begin
                spans := (lo, hi) :: !spans;
                true
              end)
            scored
        in
        let rec attempt batch =
          match batch with
          | [] -> None
          | _ ->
            let newc = contract_batch crit batch in
            let new_total = Criticality.total (Criticality.analyze gen newc) in
            if new_total <= prev_total +. eps then
              Some (newc, new_total, List.length batch)
            else if List.length batch > 1 then
              (* the batch interfered with itself: retry with the single
                 best candidate *)
              attempt [ List.hd batch ]
            else begin
              (* even the best single merge regressed: the estimate was
                 optimistic — roll back and blacklist *)
              incr rolled_back;
              let s = List.hd batch in
              Hashtbl.replace blacklist
                (merged_key crit.Criticality.dag
                   s.candidate.u
                   s.candidate.v)
                ();
              None
            end
        in
        match attempt batch with
        | Some (newc, new_total, n) ->
          committed := !committed + n;
          loop newc new_total
        | None -> loop c prev_total
      end
    end
  in
  let final = loop c initial_latency in
  let final_latency = Criticality.total (Criticality.analyze gen final) in
  ( final,
    { Merger.iterations = !iterations;
      merges_committed = !committed;
      merges_rolled_back = !rolled_back;
      initial_latency;
      final_latency
    } )

(* ------------------------------------------------------------------ *)
(* The reference compile                                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  grouped : Circuit.t;
  latency : float;
  esp : float;
  stats : Merger.stats;
}

(* [Paqoc.compile]'s stages in order — APA mining and its offline batch,
   Observation-1 preprocessing, the search, the finalize batch, pricing —
   with [run_reference] as the search, against [cache] for the duration.
   The generator sees the same pulse keys in the same order, so the pulse
   database and the cache journal come out identical. Only schemes that
   run the search without commutation-aware reordering are modelled. *)
let pipeline ?(scheme = Paqoc.paqoc_m0) ?cache gen c =
  if scheme.Paqoc.commutation_aware || not scheme.Paqoc.enable_merger then
    invalid_arg "Oracle.pipeline: scheme variant not modelled";
  let previous = Generator.shared_cache gen in
  if Option.is_some cache then Generator.set_shared_cache gen cache;
  Fun.protect ~finally:(fun () -> Generator.set_shared_cache gen previous)
  @@ fun () ->
  let apa = Apa.apply ~miner:scheme.Paqoc.miner ~mode:scheme.Paqoc.apa_mode c in
  let names = List.map fst apa.Apa.apa_gates in
  let singleton g = fst (Generator.group_of_apps [ g ]) in
  ignore
    (Generator.generate_batch gen
       (List.filter_map
          (fun (g : Gate.app) ->
            match g.Gate.kind with
            | Gate.Custom cu when List.mem cu.Gate.cname names ->
              Some (singleton g)
            | _ -> None)
          apa.Apa.circuit.Circuit.gates));
  let pre =
    Candidates.preprocess apa.Apa.circuit
      ~maxN:scheme.Paqoc.merger.Merger.max_n
  in
  let grouped, stats = run_reference ~config:scheme.Paqoc.merger gen pre in
  ignore
    (Generator.generate_batch gen
       (List.map singleton grouped.Circuit.gates));
  { grouped;
    latency = Pricing.circuit_latency gen grouped;
    esp = Pricing.circuit_esp gen grouped;
    stats
  }

let compile ?cache (req : Protocol.compile_request) =
  let scheme =
    match req.Protocol.scheme with
    | Protocol.M0 -> Paqoc.paqoc_m0
    | Protocol.Mtuned -> Paqoc.paqoc_mtuned
    | Protocol.Minf -> Paqoc.paqoc_minf
    | Protocol.Acc3 | Protocol.Acc5 ->
      invalid_arg "Oracle.compile: the AccQOC schemes have no search"
  in
  let scheme =
    { scheme with
      Paqoc.merger =
        { Merger.default_config with
          max_n = req.Protocol.max_n;
          top_k = req.Protocol.top_k
        }
    }
  in
  let logical =
    match req.Protocol.circuit with
    | Protocol.Benchmark name -> (Suite.find name).Suite.build ()
    | Protocol.Qasm _ -> invalid_arg "Oracle.compile: only benchmark requests"
  in
  let device =
    Service.resolve_device ~device:req.Protocol.device ~rows:req.Protocol.rows
      ~cols:req.Protocol.cols ~drift_seed:req.Protocol.drift_seed
      ~drift_epoch:req.Protocol.drift_epoch
  in
  let t = Transpile.run ~coupling:(Device.coupling device) logical in
  let physical = t.Transpile.physical in
  let gen =
    match req.Protocol.backend with
    | Protocol.Model -> Generator.model_default ()
    | Protocol.Qoc -> Generator.qoc_default ()
  in
  Generator.set_canonical gen req.Protocol.canonical;
  Generator.set_device gen device;
  let stats0 = Option.map Cache.stats cache in
  let o = pipeline ~scheme ?cache gen physical in
  let cache_hits, cache_misses =
    match (cache, stats0) with
    | Some c, Some s0 ->
      let s1 = Cache.stats c in
      (s1.Cache.hits - s0.Cache.hits, s1.Cache.misses - s0.Cache.misses)
    | _ -> (0, 0)
  in
  let result =
    { Protocol.latency = o.latency;
      esp = o.esp;
      (* wall-clock dependent, so no equivalence check compares it *)
      compile_seconds = 0.0;
      episodes = Circuit.n_gates o.grouped;
      fallbacks = Generator.fallbacks gen;
      synthesized = Generator.pulses_generated gen;
      cache_hits;
      cache_misses;
      logical_qubits = logical.Circuit.n_qubits;
      device_qubits = Coupling.n_qubits (Device.coupling device);
      physical_gates = Circuit.n_gates physical;
      swaps_added = t.Transpile.swaps_added
    }
  in
  { Service.result; device; gen; grouped = o.grouped }

module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Generator = Paqoc_pulse.Generator
module Apa = Paqoc_mining.Apa
module Miner = Paqoc_mining.Miner
module Obs = Paqoc_obs.Obs
module Clock = Paqoc_obs.Clock

type scheme = {
  apa_mode : Apa.mode;
  miner : Miner.config;
  merger : Merger.config;
  enable_merger : bool;
  commutation_aware : bool;
}

let base_scheme mode =
  { apa_mode = mode;
    miner = Miner.default_config;
    merger = Merger.default_config;
    enable_merger = true;
    commutation_aware = false
  }

let paqoc_m0 = base_scheme Apa.M_zero
let paqoc_mtuned = base_scheme Apa.M_tuned
let paqoc_minf = base_scheme Apa.M_inf

type report = {
  grouped : Circuit.t;
  latency : float;
  esp : float;
  compile_seconds : float;
  qoc_seconds : float;
  search_seconds : float;
  n_groups : int;
  pulses_generated : int;
  cache_hits : int;
  fallbacks : int;
  apa : Apa.result;
  merge_stats : Merger.stats;
}

(* [?cache] scopes a shared cross-run pulse cache to one compile: attach,
   run, restore whatever was attached before (usually nothing). When the
   caller does not pass a cache, the generator's own attachment — if any —
   is left exactly as it was. *)
let with_shared_cache ?cache gen f =
  match cache with
  | None -> f ()
  | Some c ->
    let previous = Generator.shared_cache gen in
    Generator.set_shared_cache gen (Some c);
    Fun.protect
      ~finally:(fun () -> Generator.set_shared_cache gen previous)
      f

(* Deadline checks sit at stage boundaries only: a stage either ran to
   completion (its pulses are committed to the database and usable by the
   next request) or never started — an expired budget can never leave the
   generator half-committed. *)
let check_deadline deadline =
  match deadline with
  | Some d when Clock.now_s () > d ->
    raise Paqoc_pulse.Protocol.Deadline_exceeded
  | _ -> ()

let compile ?(scheme = paqoc_m0) ?(jobs = 1) ?cache ?deadline gen
    (c : Circuit.t) =
  with_shared_cache ?cache gen @@ fun () ->
  Obs.with_span "paqoc.compile" @@ fun () ->
  check_deadline deadline;
  (* wall time on the monotonic clock — [Sys.time] (CPU time) would count
     every worker domain's work again on top of the elapsed time *)
  let wall0 = Clock.now_s () in
  let seconds0 = Generator.total_seconds gen in
  let generated0 = Generator.pulses_generated gen in
  let hits0 = Generator.cache_hits gen in
  let fallbacks0 = Generator.fallbacks gen in
  (* 0. optional commutativity-aware reordering (future-work extension) *)
  let c =
    if scheme.commutation_aware then Paqoc_circuit.Commutation.normalize c
    else c
  in
  (* 1. frequent subcircuits miner -> APA-basis substitution *)
  let apa =
    Obs.with_span "paqoc.apa" (fun () ->
        Apa.apply ~miner:scheme.miner ~mode:scheme.apa_mode c)
  in
  (* 1b. offline APA phase: every substituted APA gate is committed by
     definition, and the candidates are mutually independent, so their
     pulses are synthesised up front as one parallel batch (the paper's
     offline pre-computation; the criticality search then hits the
     table) *)
  let apa_names = List.map fst apa.Apa.apa_gates in
  let apa_groups =
    List.filter_map
      (fun (g : Paqoc_circuit.Gate.app) ->
        match g.Paqoc_circuit.Gate.kind with
        | Paqoc_circuit.Gate.Custom cu
          when List.mem cu.Paqoc_circuit.Gate.cname apa_names ->
          Some (fst (Generator.group_of_apps [ g ]))
        | _ -> None)
      apa.Apa.circuit.Circuit.gates
  in
  check_deadline deadline;
  Obs.with_span "paqoc.offline_batch" (fun () ->
      ignore (Generator.generate_batch ~jobs gen apa_groups));
  check_deadline deadline;
  (* 2. Observation-1 pre-processing, then the criticality search *)
  let pre = Candidates.preprocess apa.Apa.circuit ~maxN:scheme.merger.Merger.max_n in
  let grouped, merge_stats =
    if scheme.enable_merger then
      Obs.with_span "paqoc.search" (fun () ->
          Merger.run ~config:scheme.merger ~jobs gen pre)
    else begin
      let crit = Criticality.analyze gen pre in
      ( pre,
        { Merger.iterations = 0;
          merges_committed = 0;
          merges_rolled_back = 0;
          initial_latency = Criticality.total crit;
          final_latency = Criticality.total crit
        } )
    end
  in
  check_deadline deadline;
  (* 3. make sure every episode of the final schedule has its pulse; the
     episodes are independent so the leftover (non-merged, non-APA) ones
     synthesise in parallel too. The batch returns every episode's
     outcome in circuit order, so the schedule is priced from them
     directly — the same values [Pricing.circuit_latency] and
     [Pricing.circuit_esp] would read back with one lookup per episode *)
  let outcomes =
    Obs.with_span "paqoc.finalize" (fun () ->
        Generator.generate_batch ~jobs gen
          (List.map
             (fun g -> fst (Generator.group_of_apps [ g ]))
             grouped.Circuit.gates))
  in
  let latency =
    (Dag.schedule_latencies (Dag.of_circuit grouped)
       (Array.of_list
          (List.map (fun (o : Generator.outcome) -> o.latency) outcomes)))
      .Dag.total
  in
  let esp =
    List.fold_left
      (fun acc (o : Generator.outcome) -> acc *. (1.0 -. o.error))
      1.0 outcomes
  in
  let qoc_seconds = Generator.total_seconds gen -. seconds0 in
  let wall = Float.max 0.0 (Clock.now_s () -. wall0) in
  (* On the analytic backend QOC time is modeled, not spent: the cost is
     the modeled QOC seconds plus the whole wall time. On the QOC backend
     real GRAPE runs inside the wall time, so the cost is the wall time
     and the search is what remains of it once GRAPE is taken out. *)
  let compile_seconds, search_seconds =
    if Generator.pricing_is_analytic gen then (qoc_seconds +. wall, wall)
    else (wall, Float.max 0.0 (wall -. qoc_seconds))
  in
  { grouped;
    latency;
    esp;
    compile_seconds;
    qoc_seconds;
    search_seconds;
    n_groups = Circuit.n_gates grouped;
    pulses_generated = Generator.pulses_generated gen - generated0;
    cache_hits = Generator.cache_hits gen - hits0;
    fallbacks = Generator.fallbacks gen - fallbacks0;
    apa;
    merge_stats
  }

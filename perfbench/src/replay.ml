(* A stage-by-stage replay of [Service.handle] for one compile request,
   built only from the library's public calls, with the benchmark's own
   timer around each stage.

   The replay follows [Service.handle] and [Framework.compile] step for
   step: resolve the circuit and device, transpile, mine the APA basis,
   synthesise the APA batch, Observation-1 preprocessing, the
   criticality search, the finalize batch, then price the schedule. The
   traced run only trusts the per-stage times because the harness
   checks that the replay returns exactly what [Service.handle] returns
   for the same request against the same cache state. *)

module Protocol = Paqoc_pulse.Protocol
module Cache = Paqoc_pulse.Cache
module Gen = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Circuit = Paqoc_circuit.Circuit
module Gate = Paqoc_circuit.Gate
module Device = Paqoc_topology.Device
module Coupling = Paqoc_topology.Coupling
module Transpile = Paqoc_topology.Transpile
module Suite = Paqoc_benchmarks.Suite
module Apa = Paqoc_mining.Apa
module Service = Paqoc_service.Service

(* Seconds and counts accumulated over the requests of one pass. The
   time fields are disjoint: together with the transport and cache
   fields they should add up to the pass time. *)
type ledger = {
  mutable resolve_s : float;  (** circuit build, device, fresh generator *)
  mutable transpile_s : float;
  mutable apa_s : float;
  mutable batch_s : float;  (** both [Generator.generate_batch] calls *)
  mutable preprocess_s : float;
  mutable search_s : float;  (** [Merger.run] *)
  mutable latency_s : float;
  mutable esp_s : float;
  mutable handle_s : float;  (** whole compile handler *)
  mutable sweep_s : float;  (** whole sweep handler *)
  mutable rpc_s : float;  (** client round trips, handler included *)
  mutable cache_open_s : float;
  mutable cache_close_s : float;
  mutable swaps : int;
  mutable apa_substitutions : int;
  mutable gates_out : int;
  mutable iterations : int;
  mutable committed : int;
  mutable rolled_back : int;
}

let ledger () =
  { resolve_s = 0.0;
    transpile_s = 0.0;
    apa_s = 0.0;
    batch_s = 0.0;
    preprocess_s = 0.0;
    search_s = 0.0;
    latency_s = 0.0;
    esp_s = 0.0;
    handle_s = 0.0;
    sweep_s = 0.0;
    rpc_s = 0.0;
    cache_open_s = 0.0;
    cache_close_s = 0.0;
    swaps = 0;
    apa_substitutions = 0;
    gates_out = 0;
    iterations = 0;
    committed = 0;
    rolled_back = 0
  }

(* The stage timers inside the handler; [handle_s] wraps them all, so
   [handle_s] minus this sum is the handler's own unattributed time. *)
let stage_seconds l =
  l.resolve_s +. l.transpile_s +. l.apa_s +. l.batch_s +. l.preprocess_s
  +. l.search_s +. l.latency_s +. l.esp_s

type compiled = {
  result : Protocol.compile_result;
  device : Device.t;
  gen : Gen.t;
  grouped : Circuit.t;
}

let apa_mode = function
  | Protocol.M0 -> Apa.M_zero
  | Protocol.Mtuned -> Apa.M_tuned
  | Protocol.Minf -> Apa.M_inf
  | Protocol.Acc3 | Protocol.Acc5 ->
    invalid_arg "Replay.compile: AccQOC schemes are not replayed"

let compile (l : ledger) ?cache (req : Protocol.compile_request) =
  let t = Bclock.timed in
  let mode = apa_mode req.Protocol.scheme in
  let logical, dev, gen, stats0 =
    t
      (fun () ->
        let logical =
          match req.Protocol.circuit with
          | Protocol.Benchmark name -> (Suite.find name).Suite.build ()
          | Protocol.Qasm _ ->
            invalid_arg "Replay.compile: only benchmark requests"
        in
        let dev =
          Service.resolve_device ~device:req.Protocol.device
            ~rows:req.Protocol.rows ~cols:req.Protocol.cols
            ~drift_seed:req.Protocol.drift_seed
            ~drift_epoch:req.Protocol.drift_epoch
        in
        let gen =
          match req.Protocol.backend with
          | Protocol.Model -> Gen.model_default ()
          | Protocol.Qoc -> Gen.qoc_default ()
        in
        Gen.set_canonical gen req.Protocol.canonical;
        Gen.set_device gen dev;
        Gen.set_shared_cache gen cache;
        (logical, dev, gen, Option.map Cache.stats cache))
      (fun s -> l.resolve_s <- l.resolve_s +. s)
  in
  let tr =
    t
      (fun () -> Transpile.run ~coupling:(Device.coupling dev) logical)
      (fun s -> l.transpile_s <- l.transpile_s +. s)
  in
  let physical = tr.Transpile.physical in
  let scheme =
    { Paqoc.paqoc_m0 with
      apa_mode = mode;
      merger =
        { Paqoc.Merger.default_config with
          max_n = req.Protocol.max_n;
          top_k = req.Protocol.top_k
        }
    }
  in
  let jobs = req.Protocol.jobs in
  let apa, apa_groups =
    t
      (fun () ->
        let apa = Apa.apply ~miner:scheme.Paqoc.miner ~mode physical in
        let names = List.map fst apa.Apa.apa_gates in
        let groups =
          List.filter_map
            (fun (g : Gate.app) ->
              match g.Gate.kind with
              | Gate.Custom cu when List.mem cu.Gate.cname names ->
                Some (fst (Gen.group_of_apps [ g ]))
              | _ -> None)
            apa.Apa.circuit.Circuit.gates
        in
        (apa, groups))
      (fun s -> l.apa_s <- l.apa_s +. s)
  in
  let add_batch s = l.batch_s <- l.batch_s +. s in
  t (fun () -> ignore (Gen.generate_batch ~jobs gen apa_groups)) add_batch;
  let pre =
    t
      (fun () ->
        Paqoc.Candidates.preprocess apa.Apa.circuit
          ~maxN:scheme.Paqoc.merger.Paqoc.Merger.max_n)
      (fun s -> l.preprocess_s <- l.preprocess_s +. s)
  in
  let grouped, stats =
    t
      (fun () -> Paqoc.Merger.run ~config:scheme.Paqoc.merger ~jobs gen pre)
      (fun s -> l.search_s <- l.search_s +. s)
  in
  t
    (fun () ->
      ignore
        (Gen.generate_batch ~jobs gen
           (List.map
              (fun g -> fst (Gen.group_of_apps [ g ]))
              grouped.Circuit.gates)))
    add_batch;
  let latency =
    t
      (fun () -> Pricing.circuit_latency gen grouped)
      (fun s -> l.latency_s <- l.latency_s +. s)
  in
  let esp =
    t
      (fun () -> Pricing.circuit_esp gen grouped)
      (fun s -> l.esp_s <- l.esp_s +. s)
  in
  (* [Framework.compile] detaches the cache it attached *)
  Gen.set_shared_cache gen None;
  l.swaps <- l.swaps + tr.Transpile.swaps_added;
  l.apa_substitutions <- l.apa_substitutions + apa.Apa.substitutions;
  l.gates_out <- l.gates_out + Circuit.n_gates pre;
  l.iterations <- l.iterations + stats.Paqoc.Merger.iterations;
  l.committed <- l.committed + stats.Paqoc.Merger.merges_committed;
  l.rolled_back <- l.rolled_back + stats.Paqoc.Merger.merges_rolled_back;
  let cache_hits, cache_misses =
    match (cache, stats0) with
    | Some c, Some s0 ->
      let s1 = Cache.stats c in
      (s1.Cache.hits - s0.Cache.hits, s1.Cache.misses - s0.Cache.misses)
    | _ -> (0, 0)
  in
  let result =
    { Protocol.latency;
      esp;
      (* never read by the benchmark; see [Bclock] *)
      compile_seconds = 0.0;
      episodes = Circuit.n_gates grouped;
      fallbacks = Gen.fallbacks gen;
      synthesized = Gen.pulses_generated gen;
      cache_hits;
      cache_misses;
      logical_qubits = logical.Circuit.n_qubits;
      device_qubits = Coupling.n_qubits (Device.coupling dev);
      physical_gates = Circuit.n_gates physical;
      swaps_added = tr.Transpile.swaps_added
    }
  in
  { result; device = dev; gen; grouped }

(* The benchmark's own tests: the committed BENCHMARK.json is what the
   code renders and names the agreed metrics; the deterministic figures
   repeat; the seed moves request order and nothing else; the gates
   pass on small request sets. *)

module Protocol = Paqoc_pulse.Protocol
module W = Perfbench.Workload
module H = Perfbench.Harness
module Spec = Perfbench.Spec

let golden_dir = Filename.concat (Filename.concat ".." "..") "test/golden"
let spec_path = Filename.concat (Filename.concat ".." "..") "BENCHMARK.json"

(* relative, like the benchmark's own work directory: the daemon's
   socket path must stay short *)
let dir =
  lazy
    (let d = Printf.sprintf "work-%d" (Unix.getpid ()) in
     H.mkdir_p d;
     at_exit (fun () -> H.rm_rf d);
     d)

let with_instance (w : W.t) ~seed f =
  let inst = w.W.prepare ~seed ~dir:(Lazy.force dir) ~golden_dir () in
  Fun.protect ~finally:inst.W.teardown (fun () -> f inst)

let small = [ "bb84"; "simon"; "bv"; "supre"; "qaoa" ]

(* name -> (latency, esp, episodes) *)
let rows (p : W.pass) =
  List.filter_map
    (function
      | Some (W.Compiled (name, r)) ->
        Some (name, (r.Protocol.latency, r.Protocol.esp, r.Protocol.episodes))
      | _ -> None)
    p.W.results
  |> List.sort compare

let order inst =
  List.map
    (function W.Compile (n, _) -> n | W.Sweep (ix, _) -> Printf.sprintf "sweep%d" (List.hd ix))
    inst.W.requests

let all_ok verdicts = List.for_all (fun v -> v = None) verdicts

let test_spec_file () =
  let committed = In_channel.with_open_bin spec_path In_channel.input_all in
  Alcotest.(check string) "BENCHMARK.json is the rendered spec" (Spec.render ())
    committed;
  match Protocol.json_of_string committed with
  | Ok (Protocol.Obj fields) ->
    Alcotest.(check (list string))
      "top-level keys"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end";
        "per_layer" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "BENCHMARK.json does not parse"

(* The agreed metric names. The failure ratio is reported as
   [success_ratio]: a healthy run's failure ratio is 0, which has no
   relative bound. [service.resolve_s] is one stage timer more. *)
let specified_end_to_end =
  [ "setup_s"; "pass_s"; "compile_p50_ms"; "compile_p90_ms"; "pulses_per_s";
    "schedule_dt"; "esp_mean"; "pulses_synthesized"; "success_ratio";
    "peak_heap_mb" ]

let specified_per_layer =
  [ "topology.transpile_s"; "topology.swaps"; "mining.apa_s";
    "mining.apa_gates"; "candidates.preprocess_s"; "candidates.gates_out";
    "merger.search_s"; "merger.score_s"; "criticality.stage_s";
    "merger.iterations"; "merger.commit_ratio"; "generator.batch_s";
    "generator.plan_s"; "generator.commit_s"; "generator.lookups";
    "generator.hit_ratio"; "generator.synthesized"; "pricing.latency_s";
    "pricing.esp_s"; "cache.open_s"; "cache.close_s"; "cache.hits";
    "cache.misses"; "cache.publishes"; "cache.file_bytes"; "grape.optimize_s";
    "grape.calls"; "grape.iterations"; "duration_search.probes_per_pulse";
    "service.handle_s"; "service.sweep_s"; "variational.interp_hit_ratio";
    "server.rpc_overhead_s"; "ledger.unattributed_ratio"; "obs.overhead_ratio" ]

let test_metric_names () =
  let names l = List.map (fun (x : Spec.metric) -> x.Spec.name) l in
  Alcotest.(check (list string))
    "end-to-end metrics" specified_end_to_end (names Spec.end_to_end);
  Alcotest.(check (list string))
    "per-layer metrics"
    (List.sort compare ("service.resolve_s" :: specified_per_layer))
    (List.sort compare (names Spec.per_layer));
  Alcotest.(check (list string))
    "workloads"
    [ "model-suite-cold"; "daemon-warm-mix"; "qoc-small" ]
    (List.map fst Spec.workloads)

let test_same_seed_repeats () =
  let w = W.model_suite_cold ~names:small () in
  let run () =
    with_instance w ~seed:5 (fun inst ->
        let p = inst.W.pass ~traced:false in
        Alcotest.(check bool) "gates pass" true (all_ok (inst.W.check p));
        (H.quality p, W.synthesized p))
  in
  let (q1, s1), (q2, s2) = (run (), run ()) in
  Alcotest.(check (float 0.0)) "schedule_dt" q1.H.schedule_dt q2.H.schedule_dt;
  Alcotest.(check (float 0.0)) "esp_mean" q1.H.esp_mean q2.H.esp_mean;
  Alcotest.(check int) "pulses_synthesized" s1 s2

let test_seed_moves_order_only () =
  let w = W.model_suite_cold ~names:small () in
  let run seed =
    with_instance w ~seed (fun inst ->
        let p = inst.W.pass ~traced:false in
        (order inst, rows p, H.quality p))
  in
  let o1, r1, q1 = run 1 and o2, r2, q2 = run 2 in
  Alcotest.(check bool) "request order differs" true (o1 <> o2);
  Alcotest.(check bool) "per-benchmark rows agree" true (r1 = r2);
  Alcotest.(check bool) "quality figures agree" true (q1 = q2)

let test_replay_matches_service () =
  let w = W.model_suite_cold ~names:small () in
  with_instance w ~seed:3 (fun inst ->
      let u = inst.W.pass ~traced:false and t = inst.W.pass ~traced:true in
      Alcotest.(check bool) "replay = Service.handle" true
        (List.for_all2
           (fun a b ->
             match (a, b) with
             | Some a, Some b -> W.same_outcome a b
             | _ -> false)
           u.W.results t.W.results))

let test_qoc_gate () =
  let w = W.qoc_small ~names:[ "bb84" ] () in
  with_instance w ~seed:1 (fun inst ->
      let p = inst.W.pass ~traced:false in
      Alcotest.(check bool) "waveforms re-verify" true (all_ok (inst.W.check p)))

let test_daemon_gate () =
  let w = W.daemon_warm_mix ~names:[ "bb84"; "bv" ] () in
  with_instance w ~seed:W.golden_sweep_seed (fun inst ->
      let p = inst.W.pass ~traced:false in
      Alcotest.(check bool) "daemon rows = in-process rows, sweep = golden"
        true (all_ok (inst.W.check p));
      Alcotest.(check int) "warm pass synthesized nothing" 0 (W.synthesized p))

let () =
  Alcotest.run "perfbench"
    [ ( "spec",
        [ Alcotest.test_case "BENCHMARK.json" `Quick test_spec_file;
          Alcotest.test_case "metric names" `Quick test_metric_names ] );
      ( "determinism",
        [ Alcotest.test_case "same seed repeats" `Quick test_same_seed_repeats;
          Alcotest.test_case "seed moves order only" `Quick
            test_seed_moves_order_only;
          Alcotest.test_case "replay matches Service.handle" `Quick
            test_replay_matches_service ] );
      ( "gates",
        [ Alcotest.test_case "qoc-small waveforms" `Quick test_qoc_gate;
          Alcotest.test_case "daemon-warm-mix rows" `Quick test_daemon_gate ] )
    ]

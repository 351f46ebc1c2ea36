(* What the benchmark measures: its workloads and metrics, with the
   single rendering of [BENCHMARK.json] so the file and the code cannot
   drift apart (the test suite compares them). *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let m ?bound name unit_ better = { name; unit_; better; bound }

let run_seconds = 25

let workloads =
  [ ( "model-suite-cold",
      "the paper's evaluation: 17 Table I benchmarks, paqoc-m0, model \
       backend, fresh file cache per pass; search, pricing and \
       preprocessing dominate, the cache writes" );
    ( "daemon-warm-mix",
      "resident daemon on a Unix socket with a pre-warmed cache: 17 \
       benchmarks under paqoc-minf plus qaoa sweeps; mining dominates, \
       generator and cache only read" );
    ( "qoc-small",
      "bb84, simon and bv on the real GRAPE backend at max_n 2, fresh \
       cache per pass; GRAPE and duration search are nearly all of the \
       time" )
  ]

let end_to_end =
  [ m "setup_s" "s" Lower ~bound:0.25;
    m "pass_s" "s" Lower ~bound:0.25;
    m "compile_p50_ms" "ms" Lower ~bound:0.25;
    m "compile_p90_ms" "ms" Lower ~bound:0.25;
    m "pulses_per_s" "1/s" Higher ~bound:0.25;
    m "schedule_dt" "dt" Lower ~bound:0.003;
    m "esp_mean" "ratio" Higher ~bound:0.003;
    m "pulses_synthesized" "count" Lower ~bound:0.003;
    m "success_ratio" "ratio" Higher ~bound:0.01;
    m "peak_heap_mb" "MB" Lower ~bound:0.2
  ]

let per_layer =
  [ m "service.resolve_s" "s" Lower;
    m "topology.transpile_s" "s" Lower;
    m "topology.swaps" "count" Lower;
    m "mining.apa_s" "s" Lower;
    m "mining.apa_gates" "count" Higher;
    m "candidates.preprocess_s" "s" Lower;
    m "candidates.gates_out" "count" Lower;
    m "merger.search_s" "s" Lower;
    m "merger.score_s" "s" Lower;
    m "criticality.stage_s" "s" Lower;
    m "merger.iterations" "count" Lower;
    m "merger.commit_ratio" "ratio" Higher;
    m "generator.batch_s" "s" Lower;
    m "generator.plan_s" "s" Lower;
    m "generator.commit_s" "s" Lower;
    m "generator.lookups" "count" Lower;
    m "generator.hit_ratio" "ratio" Higher;
    m "generator.synthesized" "count" Lower;
    m "pricing.latency_s" "s" Lower;
    m "pricing.esp_s" "s" Lower;
    m "cache.open_s" "s" Lower;
    m "cache.close_s" "s" Lower;
    m "cache.hits" "count" Higher;
    m "cache.misses" "count" Lower;
    m "cache.publishes" "count" Lower;
    m "cache.file_bytes" "bytes" Lower;
    m "grape.optimize_s" "s" Lower;
    m "grape.calls" "count" Lower;
    m "grape.iterations" "count" Lower;
    m "duration_search.probes_per_pulse" "count" Lower;
    m "service.handle_s" "s" Lower;
    m "service.sweep_s" "s" Lower;
    m "variational.interp_hit_ratio" "ratio" Higher;
    m "server.rpc_overhead_s" "s" Lower;
    m "ledger.unattributed_ratio" "ratio" Lower;
    m "obs.overhead_ratio" "ratio" Lower
  ]

let unit_of name =
  match
    List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)
  with
  | Some x -> x.unit_
  | None -> invalid_arg ("Spec.unit_of: unknown metric " ^ name)

let better_name = function Lower -> "lower" | Higher -> "higher"

let json_string s = Printf.sprintf "%S" s

(* The exact bytes of BENCHMARK.json. *)
let render () =
  let b = Buffer.create 4096 in
  let list items f =
    List.iteri
      (fun i x ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        f x)
      items;
    Buffer.add_string b "\n  ]"
  in
  Buffer.add_string b
    "{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n\
    \  \"paths\": [\"perfbench\"],\n";
  Printf.bprintf b "  \"run_seconds\": %d,\n" run_seconds;
  Buffer.add_string b "  \"workloads\": [";
  list workloads (fun (name, why) ->
      Printf.bprintf b "    {\"name\": %s, \"why\": %s}" (json_string name)
        (json_string why));
  Buffer.add_string b ",\n  \"end_to_end\": [";
  list end_to_end (fun x ->
      Printf.bprintf b
        "    {\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
        (json_string x.name) (json_string x.unit_)
        (json_string (better_name x.better))
        (Option.value x.bound ~default:0.0));
  Buffer.add_string b ",\n  \"per_layer\": [";
  list per_layer (fun x ->
      Printf.bprintf b "    {\"name\": %s, \"unit\": %s, \"better\": %s}"
        (json_string x.name) (json_string x.unit_)
        (json_string (better_name x.better)));
  Buffer.add_string b "\n}\n";
  Buffer.contents b

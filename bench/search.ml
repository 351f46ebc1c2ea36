(* BENCH_search.json: the incremental-search trajectory.

   Compiles all 17 Table I benchmarks with both criticality-search
   implementations — the reference loop (one full analysis per merge
   attempt, the "before" phase; the test-only oracle in test/oracle) and
   the incremental engine (trial merges spliced into a stable-id DAG,
   dirty-region waves; the "after" phase, [Paqoc.compile]) — each
   through its own journaled shared cache, cold then warm. The model backend keeps QOC time out of
   the picture, so the walls are pure search cost. The headline number
   is the warm-suite speedup (reference warm wall over incremental warm
   wall): warm passes answer every pulse lookup from the cache, so they
   measure exactly the work the engine is supposed to remove. Both
   phases must agree on every benchmark's final latency — the bench
   refuses to write a trajectory for diverging searches. *)

module Gen = Paqoc_pulse.Generator
module Suite = Paqoc_benchmarks.Suite
module Cache = Paqoc_pulse.Cache
module Clock = Paqoc_obs.Clock
module Oracle = Paqoc_test_oracle.Oracle

(* One benchmark's compile in either phase: final latency and search
   statistics. *)
let reference cache physical =
  let o = Oracle.pipeline ~cache (Gen.model_default ()) physical in
  (o.Oracle.latency, o.Oracle.stats)

let incremental cache physical =
  let r = Paqoc.compile ~cache (Gen.model_default ()) physical in
  (r.Paqoc.latency, r.Paqoc.merge_stats)

type pass = {
  phase : string;  (** "before" (reference) / "after" (incremental) *)
  temp : string;  (** "cold" / "warm" *)
  wall_s : float;
  suite_latency : float;  (** sum of final critical-path latencies *)
  iterations : int;
  merges_committed : int;
  per_benchmark : (string * float * float) list;  (** name, latency, wall *)
}

let run_pass ~compile ~phase ~temp cache =
  let t0 = Clock.now_s () in
  let per =
    List.map
      (fun (e : Suite.entry) ->
        let physical =
          (Suite.transpiled e).Paqoc_topology.Transpile.physical
        in
        let b0 = Clock.now_s () in
        let r = compile cache physical in
        (e.Suite.name, r, Clock.now_s () -. b0))
      Suite.all
  in
  let wall = Clock.now_s () -. t0 in
  let sumf f = List.fold_left (fun acc (_, r, _) -> acc +. f r) 0.0 per in
  let sumi f = List.fold_left (fun acc (_, r, _) -> acc + f r) 0 per in
  let p =
    { phase;
      temp;
      wall_s = wall;
      suite_latency = sumf fst;
      iterations = sumi (fun (_, st) -> st.Paqoc.Merger.iterations);
      merges_committed =
        sumi (fun (_, st) -> st.Paqoc.Merger.merges_committed);
      per_benchmark = List.map (fun (name, (l, _), w) -> (name, l, w)) per
    }
  in
  Printf.printf
    "  %-6s %-4s wall %6.2f s  suite latency %10.0f  (%d merges, %d \
     iterations)\n\
     %!"
    phase temp p.wall_s p.suite_latency p.merges_committed p.iterations;
  p

let run_phase ~compile ~phase =
  let cache_path = Filename.temp_file "paqoc_bench_search" ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove cache_path with Sys_error _ -> ())
    (fun () ->
      Cache.with_file cache_path (fun cache ->
          let cold = run_pass ~compile ~phase ~temp:"cold" cache in
          let warm = run_pass ~compile ~phase ~temp:"warm" cache in
          (cold, warm)))

let bprint_pass buf i (p : pass) =
  if i > 0 then Buffer.add_char buf ',';
  Printf.bprintf buf
    "{\"phase\":%S,\"temp\":%S,\"wall_s\":%.6f,\"suite_latency\":%.6f,\
     \"iterations\":%d,\"merges_committed\":%d,\"per_benchmark\":["
    p.phase p.temp p.wall_s p.suite_latency p.iterations p.merges_committed;
  List.iteri
    (fun j (name, latency, wall) ->
      if j > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf "{\"name\":%S,\"latency\":%.6f,\"wall_s\":%.6f}"
        name latency wall)
    p.per_benchmark;
  Buffer.add_string buf "]}"

let run_bench_search ?(path = "BENCH_search.json") () =
  Printf.printf
    "\n%s\nSEARCH  reference vs incremental suite compile (17 benchmarks)\n%s\n"
    (String.make 78 '=') (String.make 78 '=');
  let ref_cold, ref_warm = run_phase ~compile:reference ~phase:"before" in
  let inc_cold, inc_warm = run_phase ~compile:incremental ~phase:"after" in
  (* the two searches must be the same search: equal latency trajectories *)
  List.iter2
    (fun (name, l_ref, _) (_, l_inc, _) ->
      if l_ref <> l_inc then
        failwith
          (Printf.sprintf
             "search divergence on %s: reference %.6f vs incremental %.6f —\
              refusing to write %s"
             name l_ref l_inc path))
    ref_warm.per_benchmark inc_warm.per_benchmark;
  let warm_speedup = ref_warm.wall_s /. inc_warm.wall_s in
  let cold_speedup = ref_cold.wall_s /. inc_cold.wall_s in
  Printf.printf "  warm-suite speedup: %.2fx  (cold %.2fx)\n%!" warm_speedup
    cold_speedup;
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "{\"schema\":\"paqoc-bench v1\",\"bench\":\"search\",\"benchmarks\":%d,\
     \"runs\":["
    (List.length Suite.all);
  List.iteri (bprint_pass buf) [ ref_cold; ref_warm; inc_cold; inc_warm ];
  Printf.bprintf buf
    "],\"warm_speedup\":%.4f,\"cold_speedup\":%.4f,\
     \"latencies_identical\":true}\n"
    warm_speedup cold_speedup;
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Buffer.output_buffer oc buf);
  Sys.rename tmp path;
  Printf.printf "  bench entry written to %s\n%!" path

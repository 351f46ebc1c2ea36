(* One benchmark run: set up, measure passes for the requested seconds,
   hold the results to the workload's gates, print the metrics.

   An untraced run keeps [Obs] disabled and reports the end-to-end
   metrics. A traced run takes one untraced pass, then replays the same
   requests stage by stage (see [Replay]) with [Obs] enabled, and
   reports the per-layer ledger. *)

module Protocol = Paqoc_pulse.Protocol
module Obs = Paqoc_obs.Obs
module W = Workload

let setup_reps = 3

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* ------------------------------------------------------------------ *)
(* Per-pass quality figures                                            *)
(* ------------------------------------------------------------------ *)

(* (key, latency, esp, episodes) for every compiled benchmark and every
   sweep iteration, sorted by key so the sums below do not depend on
   request order. *)
let rows (p : W.pass) =
  List.concat_map
    (function
      | Some (W.Compiled (name, r)) ->
        [ ( "c:" ^ name,
            r.Protocol.latency,
            r.Protocol.esp,
            r.Protocol.episodes ) ]
      | Some (W.Swept (ix, s)) ->
        let slots =
          s.Protocol.static_slots + s.Protocol.param_slots
          + s.Protocol.multi_slots
        in
        List.map2
          (fun i (it : Protocol.sweep_iteration) ->
            ( Printf.sprintf "s:%04d" i,
              it.Protocol.it_latency,
              it.Protocol.it_esp,
              slots ))
          ix s.Protocol.iterations
      | None -> [])
    p.W.results
  |> List.sort compare

type quality = { schedule_dt : float; esp_mean : float; episodes : int }

let quality p =
  let rs = rows p in
  let n = List.length rs in
  { schedule_dt = List.fold_left (fun acc (_, l, _, _) -> acc +. l) 0.0 rs;
    esp_mean =
      (if n = 0 then 0.0
       else List.fold_left (fun acc (_, _, e, _) -> acc +. e) 0.0 rs
            /. float_of_int n);
    episodes = List.fold_left (fun acc (_, _, _, k) -> acc + k) 0 rs
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~failed ~attempted metrics =
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-34s %18.6f %s\n" name v (Spec.unit_of name))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) (Spec.unit_of name))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed body

(* ------------------------------------------------------------------ *)
(* Obs report access                                                   *)
(* ------------------------------------------------------------------ *)

let obs_report () =
  match Protocol.json_of_string (Obs.report_json ()) with
  | Ok (Protocol.Obj fields) -> fields
  | _ -> failwith "unreadable Obs report"

let obs_field report section name key =
  match List.assoc_opt section report with
  | Some (Protocol.Obj entries) -> (
    match List.assoc_opt name entries with
    | Some (Protocol.Obj kv) -> (
      match List.assoc_opt key kv with Some (Protocol.Num v) -> v | _ -> 0.0)
    | Some (Protocol.Num v) when key = "" -> v
    | _ -> 0.0)
  | _ -> 0.0

let counter report name = obs_field report "counters" name ""

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Passes until [seconds] of wall time have elapsed (at least one). *)
let passes ~seconds f =
  let t0 = Bclock.wall () in
  let rec go acc =
    let acc = f () :: acc in
    if Bclock.wall () -. t0 < seconds then go acc else List.rev acc
  in
  go []

let count_failed verdicts =
  List.fold_left (fun acc v -> if v = None then acc else acc + 1) 0 verdicts

let report_failures name verdicts =
  List.iter
    (function
      | Some reason -> Printf.eprintf "perfbench: %s: %s\n%!" name reason
      | None -> ())
    verdicts

(* Runs [setup] [setup_reps] times, tearing down all but the last
   instance; returns it with the median set-up time in reference
   seconds. *)
let set_up setup =
  let rec loop i prev times =
    if i = setup_reps then (Option.get prev, median times)
    else begin
      Option.iter (fun (x : W.instance) -> x.W.teardown ()) prev;
      let x, s = Bclock.step (Bclock.meter ()) setup in
      loop (i + 1) (Some x) (s :: times)
    end
  in
  loop 0 None []

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Gate every pass; a pass whose quality figures differ from the
   first pass's fails as a whole (they are deterministic). *)
let gate (w : W.t) (inst : W.instance) (ps : W.pass list) =
  let q0 = quality (List.hd ps) in
  List.fold_left
    (fun (att, failed) p ->
      let v = inst.W.check p in
      report_failures w.W.name v;
      let n = List.length p.W.results in
      let bad =
        if quality p <> q0 then begin
          Printf.eprintf "perfbench: %s: a pass differs from the first\n%!"
            w.W.name;
          n
        end
        else count_failed v
      in
      (att + n, failed + bad))
    (0, 0) ps

(* Per-request latency: each request's median time over the passes
   (every pass sends the same requests in the same order). A percentile
   of the pooled samples would hop between benchmarks whose latencies
   overlap under host noise. *)
let request_medians ps =
  let per = List.map (fun p -> Array.of_list p.W.request_ms) ps in
  List.init
    (Array.length (List.hd per))
    (fun k -> median (List.map (fun a -> a.(k)) per))

let end_to_end (w : W.t) inst ~setup_s ~seconds =
  let ps = passes ~seconds (fun () -> inst.W.pass ~traced:false) in
  let attempted, failed = gate w inst ps in
  let times = List.map (fun p -> p.W.ref_s) ps in
  let ms = request_medians ps in
  let q = quality (List.hd ps) in
  let pass_s = median times in
  let synthesized =
    match inst.W.cold_synthesized with
    | Some n -> n
    | None -> W.synthesized (List.hd ps)
  in
  Printf.printf
    "%s: %d passes (reference s: %s; CPU s: %s); p50/p90 across the \
     medians of %d requests, %d samples\n"
    w.W.name (List.length ps)
    (String.concat " " (List.map (Printf.sprintf "%.3f") times))
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.W.cpu_s) ps))
    (List.length ms) attempted;
  ( attempted,
    failed,
    fun () ->
    [ ("setup_s", setup_s);
      ("pass_s", pass_s);
      ("compile_p50_ms", quantile 0.5 ms);
      ("compile_p90_ms", quantile 0.9 ms);
      ("pulses_per_s", float_of_int q.episodes /. pass_s);
      ("schedule_dt", q.schedule_dt);
      ("esp_mean", q.esp_mean);
      ("pulses_synthesized", float_of_int synthesized);
      ( "success_ratio",
        float_of_int (attempted - failed) /. float_of_int attempted );
      ("peak_heap_mb", peak_heap_mb ()) ] )

exception Replay_diverged

let per_layer (w : W.t) (inst : W.instance) ~seconds =
  let u = inst.W.pass ~traced:false in
  Obs.enable ();
  let ts =
    Fun.protect ~finally:Obs.disable (fun () ->
        passes ~seconds (fun () -> inst.W.pass ~traced:true))
  in
  let report = obs_report () in
  (* the replay's per-stage numbers are only worth printing when the
     replay did exactly what [Service.handle] did *)
  List.iter
    (fun (t : W.pass) ->
      List.iter2
        (fun a b ->
          match (a, b) with
          | Some a, Some b when W.same_outcome a b -> ()
          | _ -> raise Replay_diverged)
        t.W.results u.W.results)
    ts;
  let v = inst.W.check u in
  report_failures w.W.name v;
  let failed = count_failed v in
  let attempted =
    List.fold_left (fun acc p -> acc + List.length p.W.results) 0 (u :: ts)
  in
  let n = float_of_int (List.length ts) in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 ts in
  let per_pass f = sum f /. n in
  let lf f = per_pass (fun p -> f p.W.ledger) in
  let li f = lf (fun l -> float_of_int (f l)) in
  let overhead (l : Replay.ledger) =
    if l.Replay.rpc_s > 0.0 then
      l.Replay.rpc_s -. l.Replay.handle_s -. l.Replay.sweep_s
    else 0.0
  in
  let attributed (p : W.pass) =
    let l = p.W.ledger in
    Replay.stage_seconds l +. l.Replay.sweep_s +. l.Replay.cache_open_s
    +. l.Replay.cache_close_s +. overhead l
  in
  let span name key = obs_field report "spans" name key /. n in
  let hit = counter report "generator.cache_hit" in
  let generated = counter report "generator.generated" in
  let probes_sum = obs_field report "histograms" "duration_search.probes" "sum" in
  let probes_n =
    obs_field report "histograms" "duration_search.probes" "count"
  in
  let interp, served =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun (i, s) -> function
            | Some (W.Swept (_, r)) ->
              List.fold_left
                (fun (i, s) (it : Protocol.sweep_iteration) ->
                  ( i + it.Protocol.it_interp,
                    s + it.Protocol.it_interp + it.Protocol.it_fallback ))
                (i, s) r.Protocol.iterations
            | _ -> (i, s))
          acc p.W.results)
      (0, 0) ts
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let committed = li (fun l -> l.Replay.committed) in
  let rolled_back = li (fun l -> l.Replay.rolled_back) in
  let setup_l = inst.W.setup_ledger in
  let total = sum (fun p -> p.W.cpu_s) in
  (* evaluated after teardown, which closes the daemon's cache *)
  let metrics () =
    [ ("service.resolve_s", lf (fun l -> l.Replay.resolve_s));
      ("topology.transpile_s", lf (fun l -> l.Replay.transpile_s));
      ("topology.swaps", li (fun l -> l.Replay.swaps));
      ("mining.apa_s", lf (fun l -> l.Replay.apa_s));
      ("mining.apa_gates", li (fun l -> l.Replay.apa_substitutions));
      ("candidates.preprocess_s", lf (fun l -> l.Replay.preprocess_s));
      ("candidates.gates_out", li (fun l -> l.Replay.gates_out));
      ("merger.search_s", lf (fun l -> l.Replay.search_s));
      ("merger.score_s", span "merger.score" "total_s");
      ("criticality.stage_s", span "criticality.engine.stage" "total_s");
      ("merger.iterations", li (fun l -> l.Replay.iterations));
      ("merger.commit_ratio", ratio committed (committed +. rolled_back));
      ("generator.batch_s", lf (fun l -> l.Replay.batch_s));
      ("generator.plan_s", span "generator.plan" "total_s");
      ("generator.commit_s", span "generator.commit" "total_s");
      ("generator.lookups", (hit +. generated) /. n);
      ("generator.hit_ratio", ratio hit (hit +. generated));
      ("generator.synthesized", generated /. n);
      ("pricing.latency_s", lf (fun l -> l.Replay.latency_s));
      ("pricing.esp_s", lf (fun l -> l.Replay.esp_s));
      ( "cache.open_s",
        lf (fun l -> l.Replay.cache_open_s) +. setup_l.Replay.cache_open_s );
      ( "cache.close_s",
        lf (fun l -> l.Replay.cache_close_s) +. setup_l.Replay.cache_close_s );
      ( "cache.hits",
        per_pass (fun p -> float_of_int p.W.cache.Paqoc_pulse.Cache.hits) );
      ( "cache.misses",
        per_pass (fun p -> float_of_int p.W.cache.Paqoc_pulse.Cache.misses) );
      ( "cache.publishes",
        per_pass (fun p -> float_of_int p.W.cache.Paqoc_pulse.Cache.publishes)
      );
      ( "cache.file_bytes",
        float_of_int (List.nth ts (List.length ts - 1)).W.cache_bytes );
      ("grape.optimize_s", span "grape.optimize" "total_s");
      ("grape.calls", span "grape.optimize" "count");
      ("grape.iterations", counter report "grape.iterations" /. n);
      ("duration_search.probes_per_pulse", ratio probes_sum probes_n);
      ("service.handle_s", lf (fun l -> l.Replay.handle_s));
      ("service.sweep_s", lf (fun l -> l.Replay.sweep_s));
      ( "variational.interp_hit_ratio",
        ratio (float_of_int interp) (float_of_int served) );
      ("server.rpc_overhead_s", lf overhead);
      ( "ledger.unattributed_ratio",
        ratio (total -. sum attributed) total );
      ( "obs.overhead_ratio",
        median (List.map (fun p -> p.W.cpu_s) ts) /. u.W.cpu_s ) ]
  in
  Printf.printf
    "%s: traced %d passes (CPU %.3f s each), untraced reference pass %.3f s\n"
    w.W.name (List.length ts) (total /. n) u.W.cpu_s;
  (* the ledger: the disjoint timers as shares of the pass time *)
  let buckets =
    [ ("service.resolve", lf (fun l -> l.Replay.resolve_s));
      ("topology.transpile", lf (fun l -> l.Replay.transpile_s));
      ("mining.apa", lf (fun l -> l.Replay.apa_s));
      ("generator.batch", lf (fun l -> l.Replay.batch_s));
      ("candidates.preprocess", lf (fun l -> l.Replay.preprocess_s));
      ("merger.search", lf (fun l -> l.Replay.search_s));
      ("pricing.latency", lf (fun l -> l.Replay.latency_s));
      ("pricing.esp", lf (fun l -> l.Replay.esp_s));
      ("service.sweep", lf (fun l -> l.Replay.sweep_s));
      ( "cache.open+close",
        lf (fun l -> l.Replay.cache_open_s +. l.Replay.cache_close_s) );
      ("server.rpc_overhead", lf overhead);
      ("unattributed", (total -. sum attributed) /. n) ]
  in
  List.iter
    (fun (name, s) ->
      Printf.printf "  ledger %-22s %10.4f s %6.2f%%\n" name s
        (100.0 *. s *. n /. total))
    buckets;
  (attempted, failed, metrics)

let run (w : W.t) ~seed ~seconds ~trace ~golden_dir =
  let dir = Filename.concat ".perfbench" (string_of_int (Unix.getpid ())) in
  mkdir_p dir;
  Bclock.kernel := w.W.kernel;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Sys.rmdir ".perfbench" with Sys_error _ -> ())
    (fun () ->
      let inst, setup_s = set_up (w.W.prepare ~seed ~dir ~golden_dir) in
      let attempted, failed, metrics =
        Fun.protect ~finally:inst.W.teardown (fun () ->
            if trace then per_layer w inst ~seconds
            else end_to_end w inst ~setup_s ~seconds)
      in
      print_result ~failed ~attempted (metrics ()))

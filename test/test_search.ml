(* The incremental search battery: the engine and the fast search loop
   are pinned to their slow oracles bit-for-bit. [Criticality.Engine]
   must expose, after any sequence of stage/commit/discard/refresh, the
   exact floats a from-scratch [Criticality.analyze] computes — raw bit
   patterns, never a tolerance — and [Merger.run] must reproduce the
   test-only reference search's ([Oracle.run_reference]) circuit and
   statistics exactly, at any [jobs]; end to end, [Service.compile] must
   reproduce the reference compile's suite rows and cache bytes. The
   suite also pins the runtime guarantees the engine's
   workspace design makes: reachability queries allocate nothing, and a
   whole stage+discard step stays under a fixed minor-heap budget. *)
open Test_util
module Gen = Paqoc_pulse.Generator
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite
module Crit = Paqoc.Criticality
module Engine = Paqoc.Criticality.Engine
module Merger = Paqoc.Merger
module Oracle = Paqoc_test_oracle.Oracle
module Cache = Paqoc_pulse.Cache
module Protocol = Paqoc_pulse.Protocol
module Service = Paqoc_service.Service
module Suite = Paqoc_benchmarks.Suite
module Transpile = Paqoc_topology.Transpile

let bits = Int64.bits_of_float

let check_bits msg expected actual =
  if bits expected <> bits actual then
    Alcotest.failf "%s: %h vs %h" msg expected actual

(* ------------------------------------------------------------------ *)
(* Engine vs analyze                                                   *)
(* ------------------------------------------------------------------ *)

let case_name = function `I -> "I" | `II -> "II" | `III -> "III"

(* every exposed committed quantity must be bitwise what a from-scratch
   analysis of the same circuit against the same generator says *)
let check_engine_matches msg gen eng =
  let c = Engine.circuit eng in
  let r = Crit.analyze gen c in
  let n = Engine.n_nodes eng in
  check_int (msg ^ ": n_nodes") (Circuit.n_gates c) n;
  check_bits (msg ^ ": total") (Crit.total r) (Engine.total eng);
  for v = 0 to n - 1 do
    check_bits
      (Printf.sprintf "%s: latency %d" msg v)
      (Crit.latency r v) (Engine.latency eng v);
    check_bits
      (Printf.sprintf "%s: est %d" msg v)
      r.Crit.sched.Dag.est.(v) (Engine.est eng v);
    check_bits
      (Printf.sprintf "%s: cp_after %d" msg v)
      (Crit.cp_after r v) (Engine.cp_after eng v);
    if Crit.is_critical r v <> Engine.is_critical eng v then
      Alcotest.failf "%s: critical %d: %b vs %b" msg v (Crit.is_critical r v)
        (Engine.is_critical eng v)
  done;
  let dag = Engine.dag eng in
  for u = 0 to n - 1 do
    List.iter
      (fun v ->
        if Crit.case_of r u v <> Engine.case_of eng u v then
          Alcotest.failf "%s: case (%d,%d): %s vs %s" msg u v
            (case_name (Crit.case_of r u v))
            (case_name (Engine.case_of eng u v)))
      (Dag.succs dag u)
  done

(* mergeable pairs on the current committed circuit: DAG edges whose
   contraction stays acyclic (exactly the candidates the search sees) *)
let mergeable_pairs dag =
  let n = Dag.n_nodes dag in
  let out = ref [] in
  for u = n - 1 downto 0 do
    List.iter
      (fun v ->
        if not (Dag.has_indirect_path dag u v) then out := (u, v) :: !out)
      (Dag.succs dag u)
  done;
  !out

(* drive an engine through a random merge sequence, holding it to the
   from-scratch analysis after every stage, commit, discard and refresh;
   a third of the edits also synthesise the merged pulse first, the way
   the real search does (including for merges it then rolls back) *)
let drive_engine st c =
  let gen = Gen.model_default () in
  let eng = Engine.create gen c in
  check_engine_matches "fresh" gen eng;
  let k = ref 0 in
  let steps = 4 + Random.State.int st 5 in
  (try
     for step = 1 to steps do
       let pairs = mergeable_pairs (Engine.dag eng) in
       if pairs = [] then raise Exit;
       let u, v = List.nth pairs (Random.State.int st (List.length pairs)) in
       incr k;
       let app =
         Rewrite.custom_of_nodes (Engine.dag eng) [ u; v ]
           ~name:(Printf.sprintf "tgrp%d" !k)
       in
       if Random.State.int st 3 = 0 then
         (* price the merged pulse first, like the search's attempt *)
         ignore (Gen.generate gen (fst (Gen.group_of_apps [ app ])));
       let trial = Engine.stage eng [ ([ u; v ], app) ] in
       let staged = Engine.staged_circuit eng in
       check_bits
         (Printf.sprintf "step %d: staged total" step)
         (Crit.total (Crit.analyze gen staged))
         trial;
       if Random.State.int st 4 = 0 then begin
         Engine.discard eng;
         Engine.refresh eng;
         check_engine_matches (Printf.sprintf "step %d: discarded" step) gen
           eng
       end
       else begin
         Engine.commit eng;
         check_true
           (Printf.sprintf "step %d: committed circuit" step)
           (Circuit.to_string (Engine.circuit eng) = Circuit.to_string staged);
         Engine.refresh eng;
         check_engine_matches (Printf.sprintf "step %d: committed" step) gen
           eng
       end
     done
   with Exit -> ());
  true

let engine_differential =
  QCheck.Test.make ~count:40 ~name:"engine == analyze under random merges"
    (arb_circuit ~n:4 ~max_gates:14 ())
    (fun c ->
      (* seed the edit sequence from the circuit so failures replay *)
      let st = Random.State.make [| 0x5eed; Circuit.n_gates c |] in
      drive_engine st c)

(* The window splice against the contraction it replaces: after every
   stage — random batches of one to three span-disjoint pairs, edges and
   independent (wide-window) pairs alike — the staged circuit must be
   Rewrite.contract_mapped on the committed circuit gate for gate: each
   position holds the very gate (physically) the contraction puts
   there, the surviving one or the group's replacement. *)
let splice_differential =
  QCheck.Test.make ~count:60
    ~name:"stage == contract_mapped (disjoint batches of 1-3 pairs)"
    (arb_circuit ~n:6 ~max_gates:30 ())
    (fun c ->
      let st = Random.State.make [| 0x5b11ce; Circuit.n_gates c |] in
      let gen = Gen.model_default () in
      let eng = Engine.create gen c in
      let k = ref 0 in
      (try
         for step = 1 to 6 do
           let dag = Engine.dag eng in
           let n = Dag.n_nodes dag in
           let independent = ref [] in
           for u = 0 to n - 1 do
             for v = u + 1 to n - 1 do
               if not (Dag.reachable dag u v) then
                 independent := (u, v) :: !independent
             done
           done;
           let pool = mergeable_pairs dag @ !independent in
           if pool = [] then raise Exit;
           let shuffled =
             List.map snd
               (List.sort compare
                  (List.map (fun p -> (Random.State.bits st, p)) pool))
           in
           let want = 1 + Random.State.int st 3 in
           let batch =
             List.fold_left
               (fun acc (u, v) ->
                 if List.length acc < want
                    && List.for_all (fun (u', v') -> v < u' || v' < u) acc
                 then (u, v) :: acc
                 else acc)
               [] shuffled
           in
           let groups =
             List.map
               (fun (u, v) ->
                 incr k;
                 ( [ u; v ],
                   Rewrite.custom_of_nodes dag [ u; v ]
                     ~name:(Printf.sprintf "sgrp%d" !k) ))
               batch
           in
           let expected, old_of_new = Rewrite.contract_mapped dag groups in
           let trial = Engine.stage eng groups in
           let staged = Engine.staged_circuit eng in
           let tag = Printf.sprintf "step %d (%d pairs)" step (List.length batch) in
           check_int (tag ^ ": gates") (Circuit.n_gates expected)
             (Circuit.n_gates staged);
           List.iteri
             (fun j (g : Gate.app) ->
               let o = old_of_new.(j) in
               let want =
                 if o >= 0 then Dag.gate dag o else snd (List.nth groups (-o - 1))
               in
               if g != want then
                 Alcotest.failf "%s: position %d holds %s, contraction has %s"
                   tag j (Gate.app_to_string g) (Gate.app_to_string want))
             staged.Circuit.gates;
           check_bits (tag ^ ": staged total")
             (Crit.total (Crit.analyze gen expected))
             trial;
           if Random.State.bool st then Engine.commit eng
           else Engine.discard eng;
           check_engine_matches tag gen eng
         done
       with Exit -> ());
      true)

(* The identity contract [Merger] keys its per-edge cache on: in every
   committed snapshot, an edge's source-wire [slot] and successor
   [dst_uid] name the very gate they named in any earlier snapshot.
   Random merge batches are committed or discarded (a discard hands its
   trial uids and slots back), and each snapshot is checked against every
   name seen before. *)
let view_ids_stable =
  QCheck.Test.make ~count:40
    ~name:"view slots and uids never name another gate"
    (arb_circuit ~n:5 ~max_gates:24 ())
    (fun c ->
      let st = Random.State.make [| 0x1d5; Circuit.n_gates c |] in
      let eng = Engine.create (Gen.model_default ()) c in
      let w = Engine.view () in
      let by_slot = Hashtbl.create 64 and by_uid = Hashtbl.create 64 in
      let same tbl what id (g : Gate.app) =
        match Hashtbl.find_opt tbl id with
        | Some g' when g' != g ->
          Alcotest.failf "%s %d named %s, now %s" what id
            (Gate.app_to_string g') (Gate.app_to_string g)
        | Some _ -> ()
        | None -> Hashtbl.add tbl id g
      in
      let check_view () =
        Engine.fill_view eng w;
        for k = 0 to w.Engine.m - 1 do
          let sl = w.Engine.slot.(k) in
          if sl < 0 || sl >= w.Engine.n_slots then
            Alcotest.failf "slot %d outside [0, %d)" sl w.Engine.n_slots;
          same by_slot "slot" sl (Engine.gate eng w.Engine.src.(k));
          same by_uid "uid" w.Engine.dst_uid.(k)
            (Engine.gate eng w.Engine.dst.(k))
        done
      in
      check_view ();
      let k = ref 0 in
      (try
         for _ = 1 to 10 do
           let dag = Engine.dag eng in
           let pairs = mergeable_pairs dag in
           if pairs = [] then raise Exit;
           let u, v = List.nth pairs (Random.State.int st (List.length pairs)) in
           incr k;
           let app =
             Rewrite.custom_of_nodes dag [ u; v ]
               ~name:(Printf.sprintf "vgrp%d" !k)
           in
           ignore (Engine.stage eng [ ([ u; v ], app) ]);
           if Random.State.int st 3 = 0 then Engine.discard eng
           else Engine.commit eng;
           check_view ()
         done
       with Exit -> ());
      true)

(* a refused stage must leave the engine exactly as it was *)
let stage_refusals =
  case "stage refuses bad groups and changes nothing" (fun () ->
      let c =
        Circuit.make ~n_qubits:3
          [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2; Gate.app2 Gate.CX 0 1;
            Gate.app1 Gate.H 2; Gate.app2 Gate.CX 0 2 ]
      in
      let gen = Gen.model_default () in
      let eng = Engine.create gen c in
      let dag = Engine.dag eng in
      let grp nodes =
        (nodes, Rewrite.custom_of_nodes dag nodes ~name:"bad")
      in
      let before = Circuit.to_string (Engine.circuit eng) in
      List.iter
        (fun (what, groups) ->
          (match Engine.stage eng groups with
          | _ -> Alcotest.failf "%s: staged" what
          | exception Invalid_argument _ -> ());
          check_true (what ^ ": circuit unchanged")
            (Circuit.to_string (Engine.circuit eng) = before);
          check_engine_matches what gen eng)
        [ ("non-convex", [ grp [ 0; 2 ] ]);
          ("overlapping spans", [ grp [ 0; 2 ]; grp [ 1; 3 ] ]);
          ("shared node", [ grp [ 0; 1 ]; grp [ 1; 3 ] ]);
          ("bad id", [ grp [ 0; 1 ]; ([ 0; 9 ], snd (grp [ 0; 1 ])) ]);
          ("other qubits", [ ([ 3 ], Gate.app2 Gate.CX 0 1) ]) ])

(* ------------------------------------------------------------------ *)
(* run vs run_reference                                                *)
(* ------------------------------------------------------------------ *)

let check_same_result msg (c_a, (s_a : Merger.stats)) (c_b, s_b) =
  check_true
    (msg ^ ": circuits")
    (Circuit.to_string c_a = Circuit.to_string c_b);
  check_int (msg ^ ": iterations") s_a.Merger.iterations s_b.Merger.iterations;
  check_int (msg ^ ": committed") s_a.Merger.merges_committed
    s_b.Merger.merges_committed;
  check_int (msg ^ ": rolled back") s_a.Merger.merges_rolled_back
    s_b.Merger.merges_rolled_back;
  check_bits (msg ^ ": initial latency") s_a.Merger.initial_latency
    s_b.Merger.initial_latency;
  check_bits (msg ^ ": final latency") s_a.Merger.final_latency
    s_b.Merger.final_latency

(* vary the knobs trial to trial so top_k batches, the maxN cap and
   Case-III pruning all get exercised *)
let trial = ref 0

let search_differential =
  QCheck.Test.make ~count:30
    ~name:"Merger.run == run_reference (fresh generators, jobs 1 and 4)"
    (arb_circuit ~n:4 ~max_gates:14 ())
    (fun c ->
      incr trial;
      let config =
        { Merger.default_config with
          top_k = 1 + (!trial mod 3);
          max_n = 2 + (!trial mod 2);
          prune_noncritical = !trial mod 2 = 0
        }
      in
      let reference = Oracle.run_reference ~config (Gen.model_default ()) c in
      let fast = Merger.run ~config (Gen.model_default ()) c in
      check_same_result "jobs 1" reference fast;
      let fast4 = Merger.run ~config ~jobs:4 (Gen.model_default ()) c in
      check_same_result "jobs 4" reference fast4;
      true)

(* ------------------------------------------------------------------ *)
(* End-to-end suite equivalence (golden)                               *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The 17-benchmark suite, twice. First per benchmark on a fresh
   generator: the reference pipeline against [Paqoc.compile] at jobs 1
   and 4 — grouped circuit, latency and ESP bit for bit, and the full
   merge statistics (iterations, commits, rollbacks, initial and final
   criticality totals). Then as compile-suite runs it — one shared cache
   file per run, Table I order — through the reference compile and
   through Service.compile at jobs 1 and 4. Every suite row, every
   result field but the wall-clock compile cost, every grouped circuit
   and the compacted cache bytes must be identical. *)
let suite_equivalence =
  slow_case "all 17 benchmarks: incremental == reference == jobs 4" (fun () ->
      List.iter
        (fun (e : Suite.entry) ->
          let physical = (Suite.transpiled e).Transpile.physical in
          let r = Oracle.pipeline (Gen.model_default ()) physical in
          List.iter
            (fun jobs ->
              let x = Paqoc.compile ~jobs (Gen.model_default ()) physical in
              let tag = Printf.sprintf "%s (jobs %d)" e.Suite.name jobs in
              check_bits (tag ^ ": latency") r.Oracle.latency x.Paqoc.latency;
              check_bits (tag ^ ": esp") r.Oracle.esp x.Paqoc.esp;
              check_int (tag ^ ": groups")
                (Circuit.n_gates r.Oracle.grouped)
                x.Paqoc.n_groups;
              check_same_result (tag ^ ": stats")
                (r.Oracle.grouped, r.Oracle.stats)
                (x.Paqoc.grouped, x.Paqoc.merge_stats))
            [ 1; 4 ])
        Suite.all;
      (* what one benchmark's compile is compared on *)
      let observe name (c : Service.compiled) =
        ( name,
          Service.suite_row name c.Service.result,
          { c.Service.result with Protocol.compile_seconds = 0.0 },
          Circuit.to_string c.Service.grouped )
      in
      let run compile =
        let path = Filename.temp_file "paqoc_suite" ".cache" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let rows =
              Cache.with_file path (fun cache ->
                  List.map
                    (fun (e : Suite.entry) ->
                      observe e.Suite.name
                        (compile cache
                           { Protocol.default_compile with
                             Protocol.circuit = Protocol.Benchmark e.Suite.name
                           }))
                    Suite.all)
            in
            (rows, read_file path))
      in
      let ref_rows, ref_bytes =
        run (fun cache req -> Oracle.compile ~cache req)
      in
      let service jobs =
        run (fun cache req ->
            Service.compile ~cache ~deadline:None
              { req with Protocol.jobs = jobs })
      in
      List.iter
        (fun (tag, (rows, bytes)) ->
          List.iter2
            (fun (name, row_r, result_r, grouped_r) (_, row, result, grouped) ->
              Alcotest.(check string)
                (Printf.sprintf "%s: suite row (%s)" name tag)
                row_r row;
              check_bits
                (Printf.sprintf "%s: latency (%s)" name tag)
                result_r.Protocol.latency result.Protocol.latency;
              check_bits
                (Printf.sprintf "%s: esp (%s)" name tag)
                result_r.Protocol.esp result.Protocol.esp;
              check_true
                (Printf.sprintf "%s: result fields (%s)" name tag)
                (result_r = result);
              check_true
                (Printf.sprintf "%s: grouped circuit (%s)" name tag)
                (grouped_r = grouped))
            ref_rows rows;
          check_true
            (Printf.sprintf "compacted cache bytes (%s)" tag)
            (ref_bytes = bytes))
        [ ("jobs 1", service 1); ("jobs 4", service 4) ])

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* one whole stage+discard cycle on ham7_104 (560 episodes) measures
   ~1.6k minor words — the merged gate's key and price, the batch's
   small arrays and the undo log's growth; the splice itself allocates
   nothing. The ceiling (about 2x) pins that: a circuit or DAG rebuild
   per stage (~122k words before the splice) or any O(n) scratch
   allocation would blow it. *)
let step_budget_words = 3_500.0

(* one warmed score+select pass over the same circuit measures ~7.2k
   minor words: the boxed float arguments of the shared score formula
   per kept edge, and the selection's short lists *)
let score_budget_words = 15_000.0

let alloc_suite =
  [ case "reachability workspace queries allocate nothing" (fun () ->
        let c = (Suite.transpiled (Suite.find "rd32_270")).Transpile.physical in
        let dag = Dag.of_circuit c in
        let n = Dag.n_nodes dag in
        let ws = Dag.reach_ws n in
        (* correctness first: agree with the allocating DFS everywhere *)
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if Dag.has_indirect_path_ws ws dag u v
               <> Dag.has_indirect_path dag u v
            then
              Alcotest.failf "ws DFS disagrees at (%d,%d)" u v
          done
        done;
        let before = Gc.minor_words () in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            ignore (Dag.has_indirect_path_ws ws dag u v)
          done
        done;
        let per =
          (Gc.minor_words () -. before) /. float_of_int (n * n)
        in
        if per > 0.5 then
          Alcotest.failf
            "has_indirect_path_ws allocates %.2f words/query — the \
             workspace contract is zero"
            per);
    slow_case "a warmed-up merge step stays under the minor-heap budget"
      (fun () ->
        let physical =
          (Suite.transpiled (Suite.find "ham7_104")).Transpile.physical
        in
        let gen = Gen.model_default () in
        let eng = Engine.create gen physical in
        let dag = Engine.dag eng in
        let u, v = List.hd (mergeable_pairs dag) in
        let app = Rewrite.custom_of_nodes dag [ u; v ] ~name:"budget" in
        let groups = [ ([ u; v ], app) ] in
        for _ = 1 to 3 do
          ignore (Engine.stage eng groups);
          Engine.discard eng
        done;
        let reps = 50 in
        let before = Gc.minor_words () in
        for _ = 1 to reps do
          ignore (Engine.stage eng groups);
          Engine.discard eng
        done;
        let per_step = (Gc.minor_words () -. before) /. float_of_int reps in
        if per_step > step_budget_words then
          Alcotest.failf
            "stage+discard allocates %.0f minor words/step, over the %.0f \
             budget — a hot-path allocation crept back in"
            per_step step_budget_words);
    slow_case "a warmed-up score+select stays under the minor-heap budget"
      (fun () ->
        let physical =
          (Suite.transpiled (Suite.find "ham7_104")).Transpile.physical
        in
        let s = Merger.search (Gen.model_default ()) physical in
        (* the first pass prices every pair; later passes re-read them *)
        for _ = 1 to 3 do
          ignore (Merger.score_and_select s)
        done;
        let reps = 50 in
        let before = Gc.minor_words () in
        for _ = 1 to reps do
          ignore (Merger.score_and_select s)
        done;
        let per = (Gc.minor_words () -. before) /. float_of_int reps in
        if per > score_budget_words then
          Alcotest.failf
            "score+select allocates %.0f minor words/step, over the %.0f \
             budget — per-edge allocation crept back into scoring"
            per score_budget_words)
  ]

(* ------------------------------------------------------------------ *)
(* Priced-latency memo                                                 *)
(* ------------------------------------------------------------------ *)

let priced_memo_suite =
  [ case "warm re-analysis performs no pricing work" (fun () ->
        let c = (Suite.transpiled (Suite.find "rd32_270")).Transpile.physical in
        let gen = Gen.model_default () in
        ignore (Crit.analyze gen c);
        let cold = Gen.price_misses gen in
        check_true "cold analysis priced something" (cold > 0);
        let t1 = Crit.analyze gen c in
        check_int "warm analysis adds no misses" cold (Gen.price_misses gen);
        let t2 = Crit.analyze gen c in
        check_int "and stays warm" cold (Gen.price_misses gen);
        check_bits "memoized totals agree" (Crit.total t1) (Crit.total t2));
    case "generation writes prices through to the memo" (fun () ->
        let gen = Gen.model_default () in
        let g =
          fst
            (Gen.group_of_apps
               [ Gate.app1 Gate.H 0; Gate.app2 Gate.CX 0 1 ])
        in
        let epoch0 = Gen.price_epoch gen in
        let misses0 = Gen.price_misses gen in
        let o = Gen.generate gen g in
        check_true "generate bumps the price epoch"
          (Gen.price_epoch gen > epoch0);
        (match Gen.priced_latency_of_key gen (Gen.key g) with
        | None -> Alcotest.fail "generated group missing from the memo"
        | Some l -> check_bits "write-through latency" o.Gen.latency l);
        check_bits "priced_latency reads the committed price" o.Gen.latency
          (Gen.priced_latency gen g);
        check_int "none of it counted as a miss" misses0
          (Gen.price_misses gen));
    case "an unseen group misses once, then never again" (fun () ->
        let gen = Gen.model_default () in
        let g = fst (Gen.group_of_apps [ Gate.app2 Gate.CZ 1 2 ]) in
        let misses0 = Gen.price_misses gen in
        let l1 = Gen.priced_latency gen g in
        check_int "first lookup is the miss" (misses0 + 1)
          (Gen.price_misses gen);
        let l2 = Gen.priced_latency gen g in
        check_int "second lookup is free" (misses0 + 1)
          (Gen.price_misses gen);
        check_bits "and returns the same price" l1 l2)
  ]

let suite =
  [ qcheck engine_differential;
    qcheck search_differential;
    suite_equivalence;
    qcheck splice_differential;
    stage_refusals;
    qcheck view_ids_stable
  ]
  @ alloc_suite @ priced_memo_suite

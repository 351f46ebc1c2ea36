(* The shared cross-run pulse cache: sharding, journaled persistence,
   crash-safe tail replay, v1/v2 migration, fault-injected appends, and
   the generator/compile integration (cold-vs-warm byte identity). *)
open Test_util
module Cache = Paqoc_pulse.Cache
module Db = Paqoc_pulse.Db_format
module Gen = Paqoc_pulse.Generator
module Faultin = Paqoc_pulse.Faultin
module Suite = Paqoc_benchmarks.Suite
module Canon = Paqoc_canon.Canon

let entry ?(provenance = Db.Synthesized) lat =
  { Cache.latency = lat; error = 0.001; fidelity = 0.999; provenance }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let with_tmp f =
  let path = Filename.temp_file "paqoc_cache" ".db" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let suite =
  [ case "publish, find, probe; duplicate publish is a no-op" (fun () ->
        let c = Cache.create () in
        Cache.publish c "k1" (entry 50.0);
        Cache.publish c "k1" (entry 999.0);
        (match Cache.find c "k1" with
        | Some e -> check_float "first publish wins" 50.0 e.Cache.latency
        | None -> Alcotest.fail "k1 not found");
        check_true "probe sees it too" (Cache.probe c "k1" <> None);
        check_true "missing key misses" (Cache.find c "nope" = None);
        Cache.publish_shape c "s1";
        Cache.publish_shape c "s1";
        check_true "shape present" (Cache.mem_shape c "s1");
        check_int "one entry" 1 (Cache.size c);
        check_int "one shape" 1 (Cache.n_shapes c);
        let s = Cache.stats c in
        check_int "hits" 1 s.Cache.hits;
        check_int "misses" 1 s.Cache.misses;
        check_int "publishes (dup not counted)" 1 s.Cache.publishes;
        (* probe must not count *)
        check_int "probe did not count a hit" 1 (Cache.stats c).Cache.hits);
    case "in-memory cache has no path and compacts as a no-op" (fun () ->
        let c = Cache.create () in
        check_true "no backing file" (Cache.path c = None);
        Cache.compact c;
        Cache.close c;
        check_int "no compactions" 0 (Cache.stats c).Cache.compactions);
    case "persistence round trip through close/reopen" (fun () ->
        with_tmp @@ fun path ->
        Cache.with_file path (fun c ->
            Cache.publish c "2;cx@0,1" (entry 96.0);
            Cache.publish c "3;cx@0,1;cx@1,2"
              (entry ~provenance:Db.Fallback 200.0);
            Cache.publish_shape c "2;cx@0,1");
        let bytes = read_file path in
        check_true "v3 header"
          (String.length bytes > 17
          && String.sub bytes 0 17 = "paqoc-pulse-db v3");
        check_true "closed file is fully compacted (no journal lines)"
          (not (String.exists (fun ch -> ch = '+') bytes));
        Cache.with_file path (fun c ->
            check_int "entries survive" 2 (Cache.size c);
            check_true "shape survives" (Cache.mem_shape c "2;cx@0,1");
            match Cache.find c "3;cx@0,1;cx@1,2" with
            | Some e ->
              check_true "fallback provenance survives"
                (e.Cache.provenance = Db.Fallback)
            | None -> Alcotest.fail "entry lost"));
    case "unclosed journal (simulated crash) replays on reopen" (fun () ->
        with_tmp @@ fun path ->
        let c1 = Cache.open_file path in
        Cache.publish c1 "2;cx@0,1" (entry 96.0);
        Cache.publish_shape c1 "2;cx@0,1";
        (* no close: the records live only as journal appends *)
        let bytes = read_file path in
        check_true "journal records on disk"
          (String.length bytes > 0
          &&
          match Db.parse_string bytes with
          | Ok c -> List.length c.Db.journal = 2 && c.Db.snapshot = []
          | Error _ -> false);
        Cache.with_file path (fun c2 ->
            check_int "replayed entry" 1 (Cache.size c2);
            check_true "replayed shape" (Cache.mem_shape c2 "2;cx@0,1")));
    case "torn journal tail is dropped and truncated away" (fun () ->
        with_tmp @@ fun path ->
        let good = Db.journal_line (Db.Priced ("2;cx@0,1", entry 96.0)) in
        let torn = "+K 50 0.001 0.999 q 2;h@0" (* no trailing newline *) in
        write_file path
          ("paqoc-pulse-db v3\nK 40 0.001 0.999 q 1;h@0\n" ^ good ^ "\n"
         ^ torn);
        Cache.with_file path (fun c ->
            check_int "torn record dropped" 2 (Cache.size c);
            check_true "snapshot record kept" (Cache.probe c "1;h@0" <> None);
            check_true "complete journal record kept"
              (Cache.probe c "2;cx@0,1" <> None);
            check_true "torn record not replayed"
              (Cache.probe c "2;h@0" = None);
            (* the tail must be gone from disk before new appends land *)
            let bytes = read_file path in
            check_true "file truncated to a record boundary"
              (String.length bytes > 0
              && bytes.[String.length bytes - 1] = '\n');
            Cache.publish c "3;cx@0,1;cx@1,2" (entry 150.0));
        Cache.with_file path (fun c ->
            check_int "clean tail accepts appends" 3 (Cache.size c)));
    case "compact bytes equal a fresh snapshot save" (fun () ->
        with_tmp @@ fun path ->
        with_tmp @@ fun snap ->
        let c = Cache.open_file ~compact_every:1000 path in
        List.iter
          (fun i -> Cache.publish c (Printf.sprintf "2;rz%d@0" i) (entry 10.0))
          [ 5; 3; 9; 1 ];
        Cache.publish_shape c "2;rz@0";
        Cache.save c snap;
        Cache.compact c;
        check_true "compacted file is byte-identical to save"
          (String.equal (read_file path) (read_file snap));
        check_int "compaction counted" 1 (Cache.stats c).Cache.compactions;
        Cache.close c);
    case "auto-compaction fires at compact_every appends" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file ~compact_every:4 path in
        List.iter
          (fun i -> Cache.publish c (Printf.sprintf "1;h@%d" i) (entry 40.0))
          [ 0; 1; 2; 3 ];
        check_true "journal folded into the snapshot"
          (not (String.exists (fun ch -> ch = '+') (read_file path)));
        check_true "compaction counted"
          ((Cache.stats c).Cache.compactions >= 1);
        Cache.close c);
    case "v1 and v2 snapshots migrate to v3 on open" (fun () ->
        with_tmp @@ fun path ->
        write_file path "paqoc-pulse-db v1\nK 96 0.001 0.999 2;cx@0,1\nS 2;cx@0,1\n";
        Cache.with_file path (fun c ->
            check_int "v1 entry loaded" 1 (Cache.size c);
            match Cache.find c "2;cx@0,1" with
            | Some e ->
              check_true "v1 entries default to synthesized"
                (e.Cache.provenance = Db.Synthesized)
            | None -> Alcotest.fail "v1 entry lost");
        check_true "file migrated to v3"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v3");
        write_file path
          "paqoc-pulse-db v2\nK 96 0.001 0.999 f 2;cx@0,1\nS 2;cx@0,1\n";
        Cache.with_file path (fun c ->
            match Cache.find c "2;cx@0,1" with
            | Some e ->
              check_true "v2 provenance preserved through migration"
                (e.Cache.provenance = Db.Fallback)
            | None -> Alcotest.fail "v2 entry lost");
        check_true "file migrated to v3"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v3"));
    case "malformed cache files fail loudly" (fun () ->
        with_tmp @@ fun path ->
        write_file path "not a pulse db\n";
        check_true "bad header raises"
          (try
             ignore (Cache.open_file path);
             false
           with Failure msg -> String.length msg > 0);
        write_file path "paqoc-pulse-db v2\nK 96 bogus 0.999 q k\n";
        check_true "bad number raises"
          (try
             ignore (Cache.open_file path);
             false
           with Failure _ -> true);
        write_file path "paqoc-pulse-db v2\n+K 96 0.001 0.999 q k\n";
        check_true "journal record in a snapshot file raises"
          (try
             ignore (Cache.open_file path);
             false
           with Failure _ -> true));
    case "injected journal-append fault never tears the file" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file path in
        Cache.publish c "1;h@0" (entry 40.0);
        let before = read_file path in
        Faultin.with_faults
          [ (Faultin.Journal_append_error, Faultin.First 1) ]
          (fun () ->
            check_true "publish surfaces the failure"
              (try
                 Cache.publish c "2;cx@0,1" (entry 96.0);
                 false
               with Failure msg ->
                 check_true "message names the path"
                   (String.length msg > String.length path);
                 true));
        check_true "file rolled back to the pre-append bytes"
          (String.equal before (read_file path));
        check_true "in-memory entry survives the failed append"
          (Cache.probe c "2;cx@0,1" <> None);
        (* the failed append counts as pending work, so close compacts the
           orphaned entry onto disk *)
        Cache.close c;
        Cache.with_file path (fun c2 ->
            check_int "orphaned entry persisted by close" 2 (Cache.size c2)));
    case "publish on a closed persistent cache raises" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file path in
        Cache.close c;
        Cache.close c (* idempotent *);
        check_true "publish after close raises"
          (try
             Cache.publish c "1;h@0" (entry 40.0);
             false
           with Failure _ -> true));
    slow_case "stripe-striped publishes race safely across 4 domains"
      (fun () ->
        with_tmp @@ fun path ->
        (* every domain publishes an overlapping window of keys through a
           journaled cache with an aggressive compaction cadence, so
           appends, compactions and duplicate publishes all interleave *)
        let c = Cache.open_file ~stripes:8 ~compact_every:16 path in
        let per_domain = 200 and overlap = 50 in
        let worker d () =
          for i = 0 to per_domain - 1 do
            let k =
              Printf.sprintf "1;rz%d@0" ((d * (per_domain - overlap)) + i)
            in
            Cache.publish c k (entry (float_of_int (40 + (i mod 7))));
            ignore (Cache.find c k)
          done
        in
        let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
        List.iter Domain.join domains;
        let distinct = (3 * (per_domain - overlap)) + per_domain in
        check_int "every distinct key present exactly once" distinct
          (Cache.size c);
        let s = Cache.stats c in
        check_int "duplicate publishes were no-ops" distinct
          s.Cache.publishes;
        check_int "every post-publish find hit" (4 * per_domain)
          s.Cache.hits;
        Cache.close c;
        Cache.with_file path (fun c2 ->
            check_int "reopened contents match" distinct (Cache.size c2)));
    case "generator consults and fills the shared cache" (fun () ->
        let cache = Cache.create () in
        let g =
          fst
            (Gen.group_of_apps
               [ Gate.app2 Gate.CX 0 1;
                 Gate.app1 (Gate.RZ (Angle.const 0.4)) 1
               ])
        in
        let gen1 = Gen.model_default () in
        Gen.set_shared_cache gen1 (Some cache);
        check_true "attachment readable" (Gen.shared_cache gen1 <> None);
        let o1 = Gen.generate gen1 g in
        check_int "first generator synthesized" 1 (Gen.pulses_generated gen1);
        check_true "published to the shared cache"
          ((Cache.stats cache).Cache.publishes > 0);
        let gen2 =
          Gen.create ~shared:cache
            (Gen.Model Paqoc_pulse.Latency_model.default)
        in
        let o2 = Gen.generate gen2 g in
        check_int "second generator synthesized nothing" 0
          (Gen.pulses_generated gen2);
        check_int "it hit instead" 1 (Gen.cache_hits gen2);
        check_float "same latency" o1.Gen.latency o2.Gen.latency;
        check_float "same error" o1.Gen.error o2.Gen.error;
        check_true "marked as a cache hit" o2.Gen.cache_hit);
    case "fallback outcomes are never published" (fun () ->
        let cache = Cache.create () in
        let gen = Gen.model_default ~retry:{ Gen.default_retry with
                                             Gen.max_attempts = 1 } () in
        Gen.set_shared_cache gen (Some cache);
        let g =
          fst
            (Gen.group_of_apps
               [ Gate.app2 Gate.CX 0 1; Gate.app2 Gate.CX 1 2 ])
        in
        Faultin.with_faults
          [ (Faultin.Grape_diverge, Faultin.Always) ]
          (fun () ->
            let o = Gen.generate gen g in
            check_true "degraded to fallback"
              (o.Gen.provenance = Gen.Fallback));
        check_int "nothing published" 0 (Cache.stats cache).Cache.publishes;
        check_int "cache stays empty" 0 (Cache.size cache));
    case "load_database accepts the v3 journal format" (fun () ->
        with_tmp @@ fun path ->
        let c = Cache.open_file path in
        Cache.publish c "2;cx@0,1" (entry 96.0);
        Cache.publish_shape c "2;cx@0,1";
        (* leave the journal unfolded: load must replay it like the cache *)
        let gen = Gen.model_default () in
        Gen.load_database gen path;
        check_int "v3 journal entries load" 1 (Gen.database_size gen);
        Cache.close c);
    slow_case "cold compile through an empty cache is byte-identical"
      (fun () ->
        let physical =
          (Suite.transpiled (Suite.find "simon"))
            .Paqoc_topology.Transpile.physical
        in
        let save gen =
          let path = Filename.temp_file "paqoc_cache_db" ".txt" in
          Gen.save_database gen path;
          let s = read_file path in
          Sys.remove path;
          s
        in
        (* baseline: no cache anywhere *)
        let gen0 = Gen.model_default () in
        let r0 = Paqoc.compile gen0 physical in
        let bytes0 = save gen0 in
        with_tmp @@ fun path ->
        (* cold: same compile through a fresh (empty) journaled cache *)
        let r1, bytes1, r2, bytes2 =
          Cache.with_file path (fun cache ->
              let gen1 = Gen.model_default () in
              let r1 = Paqoc.compile ~cache gen1 physical in
              let b1 = save gen1 in
              (* warm: a fresh generator over the now-full cache *)
              let gen2 = Gen.model_default () in
              let r2 = Paqoc.compile ~cache gen2 physical in
              (r1, b1, r2, save gen2))
        in
        check_true "cold run output is byte-identical to no-cache"
          (String.equal bytes0 bytes1);
        check_float "cold latency unchanged" r0.Paqoc.latency r1.Paqoc.latency;
        check_float "cold ESP unchanged" r0.Paqoc.esp r1.Paqoc.esp;
        check_int "warm run synthesized nothing" 0 r2.Paqoc.pulses_generated;
        check_float "warm latency identical" r0.Paqoc.latency
          r2.Paqoc.latency;
        check_true "warm database is byte-identical too"
          (String.equal bytes0 bytes2));
    case "v4 class records persist and reload" (fun () ->
        with_tmp @@ fun path ->
        let h = Canon.unitary_to_floats (Gate.unitary Gate.H) in
        Cache.with_file path (fun c ->
            Cache.publish c "1;h@0" (entry 40.0);
            Cache.publish_class c
              { Db.class_key = "1q:1570796"; n_qubits = 1; unitary = h;
                rep_key = "1;h@0" };
            check_int "one class held" 1 (Cache.n_classes c));
        check_true "file upgraded to v4"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v4");
        Cache.with_file path (fun c ->
            check_int "class survives reopen" 1 (Cache.n_classes c);
            match Cache.probe_class c "1q:1570796" with
            | None -> Alcotest.fail "class record lost"
            | Some ci ->
              check_true "rep key survives" (ci.Db.rep_key = "1;h@0");
              check_int "unitary floats survive" (Array.length h)
                (Array.length ci.Db.unitary);
              check_true "floats roundtrip exactly"
                (Array.for_all2 ( = ) h ci.Db.unitary)));
    case "first class publish upgrades a v3 file in place" (fun () ->
        with_tmp @@ fun path ->
        Cache.with_file path (fun c -> Cache.publish c "1;h@0" (entry 40.0));
        check_true "starts as v3"
          (String.sub (read_file path) 0 17 = "paqoc-pulse-db v3");
        Cache.with_file path (fun c ->
            Cache.publish_class c
              { Db.class_key = "1q:0"; n_qubits = 1;
                unitary = Canon.unitary_to_floats (Cmat.identity 2);
                rep_key = "1;h@0" };
            (* the upgrade is a compaction, visible before close *)
            check_true "v4 header already on disk"
              (String.sub (read_file path) 0 17 = "paqoc-pulse-db v4");
            (* a duplicate class key is a no-op: first publisher wins *)
            Cache.publish_class c
              { Db.class_key = "1q:0"; n_qubits = 1;
                unitary = Canon.unitary_to_floats (Cmat.identity 2);
                rep_key = "9;other" };
            check_int "duplicate not recorded" 1 (Cache.n_classes c);
            match Cache.probe_class c "1q:0" with
            | Some ci -> check_true "first rep kept" (ci.Db.rep_key = "1;h@0")
            | None -> Alcotest.fail "class lost"));
    case "malformed class sections load as typed errors" (fun () ->
        with_tmp @@ fun path ->
        let expect_error want body =
          write_file path body;
          try
            ignore (Cache.open_file path);
            Alcotest.failf "expected failure %S" want
          with Failure msg ->
            let contains s sub =
              let n = String.length s and m = String.length sub in
              let rec go i = i + m <= n
                             && (String.sub s i m = sub || go (i + 1)) in
              go 0
            in
            check_true
              (Printf.sprintf "%S mentions %S" msg want)
              (contains msg want)
        in
        expect_error "class record in a pre-v4 file"
          "paqoc-pulse-db v3\nC 1q:0 1 1 0 0 0 0 0 1 0 k\n";
        expect_error "bad class arity"
          "paqoc-pulse-db v4\nC 1q:0 nine 1 0 0 0 0 0 1 0 k\n";
        expect_error "bad class arity"
          "paqoc-pulse-db v4\nC 1q:0 7 1 0 0 0 0 0 1 0 k\n";
        expect_error "bad class float"
          "paqoc-pulse-db v4\nC 1q:0 1 1 0 bogus 0 0 0 1 0 k\n";
        expect_error "truncated class record"
          "paqoc-pulse-db v4\nC 1q:0 1 1 0 0 0\n";
        expect_error "bad C line" "paqoc-pulse-db v4\nC 2q:0\n");
    case "v4 snapshots round-trip byte-stably" (fun () ->
        with_tmp @@ fun path ->
        Cache.with_file path (fun c ->
            Cache.publish c "2;cx@0,1" (entry 96.0);
            Cache.publish c "2;cz@0,1" (entry 96.0);
            Cache.publish_shape c "2;cx@0,1";
            Cache.publish_class c
              { Db.class_key = "2q:0:0:1000000:0"; n_qubits = 2;
                unitary = Canon.unitary_to_floats (Gate.unitary Gate.CX);
                rep_key = "2;cx@0,1" });
        let bytes1 = read_file path in
        check_true "v4 header" (String.sub bytes1 0 17 = "paqoc-pulse-db v4");
        (* open/close with no writes must not move a byte *)
        Cache.with_file path (fun c ->
            check_int "classes loaded" 1 (Cache.n_classes c));
        check_true "reopen/close is byte-stable"
          (String.equal bytes1 (read_file path));
        (* and a fresh save of the loaded contents reproduces the bytes *)
        with_tmp @@ fun snap ->
        Cache.with_file path (fun c -> Cache.save c snap);
        check_true "save reproduces the snapshot bytes"
          (String.equal bytes1 (read_file snap)));
    case "find_canonical consults both tiers with honest counters"
      (fun () ->
        let c = Cache.create () in
        let rep_u = Gate.unitary Gate.H in
        Cache.publish c "1;h@0" (entry 40.0);
        Cache.publish_class c
          { Db.class_key = "1q:1570796"; n_qubits = 1;
            unitary = Canon.unitary_to_floats rep_u; rep_key = "1;h@0" };
        let validate target ci =
          match Canon.unitary_of_floats ~n_qubits:ci.Db.n_qubits
                  ci.Db.unitary with
          | Error _ -> None
          | Ok rep -> Canon.relate ~rep ~target
        in
        (* exact tier *)
        (match
           Cache.find_canonical c ~key:"1;h@0"
             ~class_key:(Some "1q:1570796")
             ~validate:(validate (Gate.unitary Gate.SX))
         with
        | Cache.Hit_exact e -> check_float "exact entry" 40.0 e.Cache.latency
        | _ -> Alcotest.fail "expected an exact hit");
        (* class tier: SX is a class-mate of H *)
        (match
           Cache.find_canonical c ~key:"1;sx@0"
             ~class_key:(Some "1q:1570796")
             ~validate:(validate (Gate.unitary Gate.SX))
         with
        | Cache.Hit_class (e, ci, (l, r)) ->
          check_float "replayed entry" 40.0 e.Cache.latency;
          check_true "class record surfaced" (ci.Db.rep_key = "1;h@0");
          check_mat_phase ~tol:1e-6 "correction verifies"
            (Gate.unitary Gate.SX)
            (Cmat.mul l (Cmat.mul rep_u r))
        | _ -> Alcotest.fail "expected a class hit");
        (* failed validation is an ordinary miss, not a hit *)
        (match
           Cache.find_canonical c ~key:"2;swap@0,1"
             ~class_key:(Some "1q:1570796")
             ~validate:(fun _ -> None)
         with
        | Cache.Tiered_miss -> ()
        | _ -> Alcotest.fail "failed validation must miss");
        (* unknown class key, and no class key at all *)
        (match
           Cache.find_canonical c ~key:"nope" ~class_key:(Some "1q:999")
             ~validate:(fun _ -> None)
         with
        | Cache.Tiered_miss -> ()
        | _ -> Alcotest.fail "unknown class must miss");
        (match
           Cache.find_canonical c ~key:"nope" ~class_key:None
             ~validate:(fun _ -> None)
         with
        | Cache.Tiered_miss -> ()
        | _ -> Alcotest.fail "no class key degrades to find");
        let s = Cache.stats c in
        check_int "hits: exact + class" 2 s.Cache.hits;
        check_int "canonical subset" 1 s.Cache.canonical_hits;
        check_int "misses: the three failures" 3 s.Cache.misses);
    case "note_consult drives the same counters" (fun () ->
        let c = Cache.create () in
        Cache.note_consult c `Hit;
        Cache.note_consult c `Canonical_hit;
        Cache.note_consult c `Miss;
        let s = Cache.stats c in
        check_int "two hits" 2 s.Cache.hits;
        check_int "one canonical" 1 s.Cache.canonical_hits;
        check_int "one miss" 1 s.Cache.misses);
    slow_case "canonical compile publishes classes; off mode stays v3"
      (fun () ->
        let physical =
          (Suite.transpiled (Suite.find "bb84"))
            .Paqoc_topology.Transpile.physical
        in
        with_tmp @@ fun off_path ->
        Cache.with_file off_path (fun cache ->
            let gen = Gen.model_default () in
            ignore (Paqoc.compile ~cache gen physical);
            check_int "off mode records no classes" 0 (Cache.n_classes cache);
            check_int "off mode scores no canonical hits" 0
              (Cache.stats cache).Cache.canonical_hits);
        let off = read_file off_path in
        check_true "off mode file stays v3"
          (String.sub off 0 17 = "paqoc-pulse-db v3");
        with_tmp @@ fun on_path ->
        Cache.with_file on_path (fun cache ->
            let gen = Gen.model_default () in
            Gen.set_canonical gen true;
            ignore (Paqoc.compile ~cache gen physical);
            check_true "classes published" (Cache.n_classes cache > 0);
            check_true "in-batch class-mates replayed"
              ((Cache.stats cache).Cache.canonical_hits > 0));
        check_true "canonical file is v4"
          (String.sub (read_file on_path) 0 17 = "paqoc-pulse-db v4"))
  ]

(* Golden regressions, pinned byte-for-byte.

   - The 17-benchmark PAQOC-M0 latency table: any change to the latency
     model, the merge search, the miner or the planner that moves a single
     benchmark's latency or episode count fails here.
   - The GRAPE bit-determinism golden: iterations, fidelities and the full
     amplitude envelope (as [%h] hex floats) of a fixed 2-qubit CX
     optimisation under both optimisers. This is what licenses the
     allocation-free kernel rewrite: any reordering of a single
     floating-point operation in the hot path flips a bit here. It is also
     the anchor of the pulse database's byte determinism.
   - The 32-point variational sweep table: per-iteration latency, ESP and
     interp/fallback/resynth accounting of the frozen-plan fast path over
     the seeded qaoa sweep. Any change to the anchor grid, interpolation
     rule, fallback policy or slot pricing moves a byte here.
   - The mined patterns: the APA miner's ranked patterns, occurrence
     lists (by digest) and representative bodies on every suite circuit
     and extra, under the default and the variational miner config, plus
     the paqoc-minf latency/ESP/substitution table built from them.

   Intentional changes refresh the files with [make update-golden], which
   renders through the exact same code paths. *)
open Test_util
module LT = Paqoc_benchmarks.Latency_table
module Grape = Paqoc_pulse.Grape

(* under `dune runtest` the cwd is the test directory (the dep glob puts
   the file at golden/...); when the binary is run by hand from the repo
   root the file lives under test/ *)
let resolve name =
  if Sys.file_exists ("golden/" ^ name) then "golden/" ^ name
  else "test/golden/" ^ name

let golden_path = resolve "latency_table.txt"
let grape_golden_path = resolve "grape_amplitudes.txt"
let canon_golden_path = resolve "canon_hit_rates.txt"
let sweep_golden_path = resolve "sweep_table.txt"
let mined_golden_path = resolve "mined_patterns.txt"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the first line where two renderings part, for a failure message that
   names the pattern or row that moved *)
let first_diff golden computed =
  let rec go i = function
    | g :: gs, c :: cs ->
      if String.equal g c then go (i + 1) (gs, cs)
      else Printf.sprintf "line %d:\n  golden:   %s\n  computed: %s" i g c
    | [], c :: _ -> Printf.sprintf "extra line %d: %s" i c
    | g :: _, [] -> Printf.sprintf "missing line %d: %s" i g
    | [], [] -> "lengths differ"
  in
  go 1 (String.split_on_char '\n' golden, String.split_on_char '\n' computed)

let suite =
  [ slow_case "17-benchmark latency table matches the golden file" (fun () ->
        let golden = read_file golden_path in
        let computed = LT.render (LT.compute ()) in
        if not (String.equal golden computed) then begin
          (* diff the rows so the failure names the benchmarks that moved
             instead of dumping two blobs *)
          let gr = LT.parse golden and cr = LT.parse computed in
          let moved =
            if List.length gr <> List.length cr then
              [ Printf.sprintf "row count %d -> %d" (List.length gr)
                  (List.length cr) ]
            else
              List.concat
                (List.map2
                   (fun (g : LT.row) (c : LT.row) ->
                     if
                       String.equal g.LT.name c.LT.name
                       && g.LT.latency = c.LT.latency
                       && g.LT.n_groups = c.LT.n_groups
                     then []
                     else
                       [ Printf.sprintf
                           "%s: latency %.17g -> %.17g, episodes %d -> %d"
                           g.LT.name g.LT.latency c.LT.latency g.LT.n_groups
                           c.LT.n_groups ])
                   gr cr)
          in
          Alcotest.failf
            "latency table drifted (run `make update-golden` if \
             intentional):@.%s"
            (String.concat "\n" moved)
        end);
    slow_case "GRAPE reference run matches the golden file bit-for-bit"
      (fun () ->
        let golden = read_file grape_golden_path in
        let computed = Grape.reference_golden () in
        if not (String.equal golden computed) then
          (* name the first drifting line — the slice index and hex floats
             say exactly which amplitude moved *)
          Alcotest.failf
            "GRAPE amplitudes drifted (bitwise; run `make update-golden` \
             if intentional):@.%s"
            (first_diff golden computed));
    slow_case "mined patterns and paqoc-minf table match the golden file"
      (fun () ->
        let golden = read_file mined_golden_path in
        let computed = Paqoc_test_render.Mined_golden.render () in
        if not (String.equal golden computed) then
          Alcotest.failf
            "mined patterns drifted (run `make update-golden` if \
             intentional):@.%s"
            (first_diff golden computed));
    slow_case "canonical hit-rate table matches the golden file" (fun () ->
        let golden = read_file canon_golden_path in
        let computed =
          Paqoc_benchmarks.Canon_table.(render (compute ()))
        in
        if not (String.equal golden computed) then begin
          let module CT = Paqoc_benchmarks.Canon_table in
          let gr = CT.parse golden and cr = CT.parse computed in
          let moved =
            if List.length gr <> List.length cr then
              [ Printf.sprintf "row count %d -> %d" (List.length gr)
                  (List.length cr) ]
            else
              List.concat
                (List.map2
                   (fun (g : CT.row) (c : CT.row) ->
                     if g = c then []
                     else
                       [ Printf.sprintf
                           "%s: synthesized %d -> %d, hits %d -> %d, \
                            canonical %d -> %d"
                           g.CT.name g.CT.synthesized c.CT.synthesized
                           g.CT.hits c.CT.hits g.CT.canonical_hits
                           c.CT.canonical_hits ])
                   gr cr)
          in
          Alcotest.failf
            "canonical hit rates drifted (run `make update-golden` if \
             intentional):@.%s"
            (String.concat "\n" moved)
        end);
    case "canonical golden holds the paper's reuse targets" (fun () ->
        (* the acceptance floor lives in the pinned file itself: the cold
           cross-benchmark hit rate must stay >= 30%, qft > 20%, and the
           once-0%% benchmarks (supre, bb84) must keep reusing pulses *)
        let module CT = Paqoc_benchmarks.Canon_table in
        let rows = CT.parse (read_file canon_golden_path) in
        check_int "seventeen rows" 17 (List.length rows);
        let synth = List.fold_left (fun a r -> a + r.CT.synthesized) 0 rows in
        let hits = List.fold_left (fun a r -> a + r.CT.hits) 0 rows in
        let overall = float_of_int hits /. float_of_int (hits + synth) in
        check_true
          (Printf.sprintf "overall cold hit rate %.3f >= 0.30" overall)
          (overall >= 0.30);
        let rate name =
          CT.hit_rate (List.find (fun r -> r.CT.name = name) rows)
        in
        check_true "qft > 20%" (rate "qft" > 0.20);
        check_true "supre > 0%" (rate "supre" > 0.0);
        check_true "bb84 > 0%" (rate "bb84" > 0.0);
        List.iter
          (fun (r : CT.row) ->
            check_true (r.CT.name ^ " canonical subset of hits")
              (r.CT.canonical_hits <= r.CT.hits))
          rows);
    slow_case "32-point sweep table matches the golden file" (fun () ->
        let golden = read_file sweep_golden_path in
        let computed =
          Paqoc_benchmarks.Sweep_table.(render (compute ()))
        in
        if not (String.equal golden computed) then begin
          let module ST = Paqoc_benchmarks.Sweep_table in
          let gr = ST.parse golden and cr = ST.parse computed in
          let moved =
            if List.length gr <> List.length cr then
              [ Printf.sprintf "row count %d -> %d" (List.length gr)
                  (List.length cr) ]
            else
              List.concat
                (List.map2
                   (fun (g : ST.row) (c : ST.row) ->
                     if g = c then []
                     else
                       [ Printf.sprintf
                           "iter %d: latency %.17g -> %.17g, esp %.17g -> \
                            %.17g, interp/fallback/resynth %d/%d/%d -> \
                            %d/%d/%d"
                           g.ST.iter g.ST.latency c.ST.latency g.ST.esp
                           c.ST.esp g.ST.interp g.ST.fallback g.ST.resynth
                           c.ST.interp c.ST.fallback c.ST.resynth ])
                   gr cr)
          in
          Alcotest.failf
            "sweep table drifted (run `make update-golden` if \
             intentional):@.%s"
            (String.concat "\n" moved)
        end);
    case "sweep golden parses, covers the sweep and stays on the fast path"
      (fun () ->
        (* the acceptance floor lives in the pinned file: every iteration
           present and in order, every parameter slot served from the
           anchor table (model anchors price any angle in closed form, so
           a fallback here means the hull or the plan shape regressed) *)
        let module ST = Paqoc_benchmarks.Sweep_table in
        let rows = ST.parse (read_file sweep_golden_path) in
        check_int "thirty-two rows" 32 (List.length rows);
        List.iteri
          (fun i (r : ST.row) ->
            check_int (Printf.sprintf "row %d in sweep order" i) i r.ST.iter;
            check_true
              (Printf.sprintf "iter %d latency positive" i)
              (r.ST.latency > 0.0);
            check_true
              (Printf.sprintf "iter %d esp in (0,1]" i)
              (r.ST.esp > 0.0 && r.ST.esp <= 1.0);
            check_int
              (Printf.sprintf "iter %d no fallbacks" i)
              0 r.ST.fallback;
            check_true
              (Printf.sprintf "iter %d serves parameter slots" i)
              (r.ST.interp > 0))
          rows);
    case "golden file parses and covers all seventeen benchmarks" (fun () ->
        let rows = LT.parse (read_file golden_path) in
        check_int "seventeen rows" 17 (List.length rows);
        List.iter2
          (fun (r : LT.row) (e : Paqoc_benchmarks.Suite.entry) ->
            check_true
              (Printf.sprintf "row %s in Table I order" r.LT.name)
              (String.equal r.LT.name e.Paqoc_benchmarks.Suite.name);
            check_true (r.LT.name ^ " latency positive") (r.LT.latency > 0.0);
            check_true
              (r.LT.name ^ " has episodes")
              (r.LT.n_groups > 0))
          rows Paqoc_benchmarks.Suite.all)
  ]

(* Differential oracles for the APA miner and APA selection: the
   single-pass miner (each candidate node set tried once per level, each
   node labelled once, canonical codes compared byte-wise with pruning)
   must return exactly what the render-every-linearisation miner in
   [Miner_reference] returns — same patterns, order, occurrences and
   representative bodies — and the near-linear selection must rewrite
   exactly as the rescan-every-span one did, for every [M] mode. *)
open Test_util
module Dag = Paqoc_circuit.Dag
module Pattern = Paqoc_mining.Pattern
module Miner = Paqoc_mining.Miner
module Apa = Paqoc_mining.Apa
module Suite = Paqoc_benchmarks.Suite
module Ref = Miner_reference

(* Circuits built from a small alphabet, so subcircuits recur: few
   qubits, a handful of gate kinds and two angles per rotation, which
   makes angle-blind and angle-exact codes part ways. *)
let gen_mining_circuit =
  let open QCheck.Gen in
  int_range 2 4 >>= fun n ->
  let q = int_bound (n - 1) in
  let pair =
    map2 (fun a d -> (a, (a + 1 + d) mod n)) q (int_bound (max 0 (n - 2)))
  in
  let angle = map (fun b -> Angle.const (if b then 0.25 else 1.5)) bool in
  let gate =
    frequency
      [ (3, map (fun i -> Gate.app1 Gate.H i) q);
        (2, map (fun i -> Gate.app1 Gate.T i) q);
        (2, map2 (fun i a -> Gate.app1 (Gate.RZ a) i) q angle);
        (4, map (fun (a, b) -> Gate.app2 Gate.CX a b) pair);
        (1, map2 (fun (a, b) t -> Gate.app2 (Gate.CPhase t) a b) pair angle)
      ]
  in
  map
    (fun gates -> Circuit.make ~n_qubits:n gates)
    (list_size (int_range 4 24) gate)

let gen_config =
  let open QCheck.Gen in
  map4
    (fun max_qubits max_gates min_support abstract_angles ->
      { Miner.default_config with
        Miner.max_qubits; max_gates; min_support; abstract_angles })
    (int_range 2 4) (int_range 3 8) (int_range 2 3) bool

let print_config (cfg : Miner.config) =
  Printf.sprintf "max_qubits=%d max_gates=%d min_support=%d abstract=%b"
    cfg.Miner.max_qubits cfg.Miner.max_gates cfg.Miner.min_support
    cfg.Miner.abstract_angles

let arb_case =
  QCheck.make
    ~print:(fun (c, cfg) -> print_config cfg ^ "\n" ^ Circuit.to_string c)
    QCheck.Gen.(pair gen_mining_circuit gen_config)

(* a circuit and up to eight of its nodes, connected or not: disconnected
   same-label gates on fresh wires tie under canonicalisation, which pins
   which tied order supplies the body and wire map *)
let arb_node_set =
  let gen =
    let open QCheck.Gen in
    gen_mining_circuit >>= fun c ->
    let n = Circuit.n_gates c in
    map2
      (fun picks label ->
        let nodes =
          List.sort_uniq compare (List.map (fun i -> i mod n) picks)
        in
        (c, nodes, label))
      (list_size (int_range 1 8) (int_bound (n - 1)))
      bool
  in
  QCheck.make
    ~print:(fun (c, nodes, _) ->
      String.concat "," (List.map string_of_int nodes) ^ "\n"
      ^ Circuit.to_string c)
    gen

(* Three wires each run a chain of one-qubit gates into a ccx (wire 0
   three deep, wires 1 and 2 the same two gates): the 8-node block has
   7!/(3!2!2!) = 210 topological orders, so canonicalisation takes the
   capped path, and wires 1 and 2 tie. Repeated on fresh wires with
   other angles, so every sub-block is frequent and angle-blind codes
   tie across copies. *)
let wide_block a b c theta =
  [ Gate.app1 Gate.H a; Gate.app1 (Gate.RZ (Angle.const theta)) a;
    Gate.app1 Gate.T a; Gate.app1 Gate.H b;
    Gate.app1 (Gate.RZ (Angle.const theta)) b; Gate.app1 Gate.H c;
    Gate.app1 (Gate.RZ (Angle.const theta)) c; Gate.app3 Gate.CCX a b c ]

let wide_circuit =
  Circuit.make ~n_qubits:6 (wide_block 0 1 2 0.3 @ wide_block 3 4 5 1.1)

let wide_config =
  { Miner.default_config with Miner.max_gates = 8; min_support = 2 }

let check_mine name config c =
  if Miner.mine ~config c <> Ref.mine ~config c then
    Alcotest.failf "%s: miner diverged from the reference (%s)" name
      (print_config config)

let modes = [ Apa.M_tuned; Apa.M_inf; Apa.M_limit 1; Apa.M_limit 3 ]

let same_apa (a : Apa.result) (b : Apa.result) =
  a.Apa.circuit = b.Apa.circuit
  && a.Apa.apa_gates = b.Apa.apa_gates
  && a.Apa.m_used = b.Apa.m_used
  && a.Apa.substitutions = b.Apa.substitutions
  && a.Apa.gates_covered = b.Apa.gates_covered

let check_apa name miner c =
  let mined = Miner.mine ~config:miner c in
  List.iter
    (fun mode ->
      let got = Apa.apply ~miner ~mode c in
      if not (same_apa got (Ref.apply ~miner ~mode ~mined c)) then
        Alcotest.failf "%s: APA %s diverged from the reference selection" name
          (Apa.mode_to_string mode))
    modes

let suite =
  [ qcheck
      (QCheck.Test.make ~count:300
         ~name:"miner = reference miner (random configs)" arb_case
         (fun (c, config) -> Miner.mine ~config c = Ref.mine ~config c));
    qcheck
      (QCheck.Test.make ~count:300 ~name:"of_nodes = reference of_nodes"
         arb_node_set
         (fun (c, nodes, blind) ->
           let label =
             if blind then Miner.label_of Miner.default_config
             else Gate.mining_label
           in
           let dag = Dag.of_circuit c in
           Pattern.of_nodes ~label dag nodes = Ref.of_nodes ~label dag nodes));
    case "capped canonicalisation (210 orders) = reference" (fun () ->
        let dag = Dag.of_circuit wide_circuit in
        List.iter
          (fun label ->
            List.iter
              (fun nodes ->
                let got = Pattern.of_nodes ~label dag nodes in
                let want = Ref.of_nodes ~label dag nodes in
                if got <> want then
                  Alcotest.failf "of_nodes [%s] diverged"
                    (String.concat ";" (List.map string_of_int nodes)))
              [ List.init 8 Fun.id; List.init 8 (fun i -> i + 8);
                [ 0; 1; 3; 5; 7 ]; [ 0; 1; 2; 3; 4; 5; 6 ] ])
          [ Gate.mining_label; Miner.label_of Miner.default_config ];
        check_mine "wide ccx" wide_config wide_circuit;
        check_mine "wide ccx, angle-exact"
          { wide_config with Miner.abstract_angles = false }
          wide_circuit;
        check_true "the 8-gate block is mined"
          (List.exists
             (fun (f : Miner.found) -> f.Miner.pattern.Pattern.size = 8)
             (Miner.mine ~config:wide_config wide_circuit)));
    slow_case "miner = reference miner on the suite and extras" (fun () ->
        List.iter
          (fun (e : Suite.entry) ->
            let c = e.Suite.build () in
            check_mine e.Suite.name Miner.default_config c;
            check_mine e.Suite.name
              { Miner.default_config with Miner.max_qubits = 2 } c)
          (Suite.all @ Suite.extras));
    slow_case "APA selection = reference selection on the suite" (fun () ->
        List.iter
          (fun (e : Suite.entry) ->
            check_apa e.Suite.name Miner.default_config (e.Suite.build ()))
          (Suite.all @ Suite.extras));
    qcheck
      (QCheck.Test.make ~count:200 ~name:"APA selection = reference selection"
         arb_case
         (fun (c, miner) ->
           let mined = Miner.mine ~config:miner c in
           List.for_all
             (fun mode ->
               same_apa (Apa.apply ~miner ~mode c)
                 (Ref.apply ~miner ~mode ~mined c))
             modes))
  ]

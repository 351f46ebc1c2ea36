(* Hot-path costs and the equivalences that make them safe: a warm
   pulse-table hit allocates a bounded amount, the generator's stored
   device namespace follows every device switch, the linear
   Observation-1 pairing matches the span-list version it replaced, the
   window-sized convexity check matches a brute-force one, the finalize
   batch prices the schedule exactly as [Pricing] would, and the compile
   cost counts QOC time once on either backend. *)
open Test_util
module Gen = Paqoc_pulse.Generator
module Pricing = Paqoc_pulse.Pricing
module Cache = Paqoc_pulse.Cache
module Device = Paqoc_topology.Device
module Drift = Paqoc_topology.Drift
module Transpile = Paqoc_topology.Transpile
module Dag = Paqoc_circuit.Dag
module Rewrite = Paqoc_circuit.Rewrite
module Suite = Paqoc_benchmarks.Suite
module Clock = Paqoc_obs.Clock
module Candidates = Paqoc.Candidates

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

(* The Observation-1 preprocessing as it was before the linear pairing:
   every candidate span is checked against the list of spans selected so
   far, reachability uses the allocating DFS, and each round's
   contraction rebuilds its DAG from the circuit. *)
let preprocess_span_list (c : Circuit.t) ~maxN =
  let compatible dag u v =
    let gu = Dag.gate dag u and gv = Dag.gate dag v in
    let union = Candidates.qubit_union gu gv in
    let nu = List.length (List.sort_uniq compare gu.Gate.qubits) in
    let nv = List.length (List.sort_uniq compare gv.Gate.qubits) in
    List.length union <= maxN
    && List.length union = max nu nv
    && not (Dag.has_indirect_path dag u v)
  in
  let counter = ref 0 in
  let rec round c =
    let dag = Dag.of_circuit c in
    let n = Dag.n_nodes dag in
    let used = Array.make n false in
    let spans = ref [] in
    let selected = ref [] in
    for u = 0 to n - 1 do
      if not used.(u) then
        List.iter
          (fun v ->
            if (not used.(u)) && (not used.(v)) && compatible dag u v then begin
              let lo = min u v and hi = max u v in
              let clash =
                List.exists (fun (lo', hi') -> lo <= hi' && lo' <= hi) !spans
              in
              if not clash then begin
                used.(u) <- true;
                used.(v) <- true;
                spans := (lo, hi) :: !spans;
                selected := (u, v) :: !selected
              end
            end)
          (List.sort compare (Dag.succs dag u))
    done;
    match !selected with
    | [] -> c
    | sel ->
      let groups =
        List.map
          (fun (u, v) ->
            incr counter;
            let nodes = [ u; v ] in
            ( nodes,
              Rewrite.custom_of_nodes dag nodes
                ~name:(Printf.sprintf "pre%d" !counter) ))
          sel
      in
      round (Rewrite.contract c groups)
  in
  round c

(* Convexity from the definition: S is convex iff no node outside S is
   reachable from a member and reaches a member, with reachability the
   transitive closure of the edge lists over the whole DAG. *)
let convex_brute dag nodes =
  let n = Dag.n_nodes dag in
  let reach = Array.make_matrix n n false in
  for v = n - 1 downto 0 do
    List.iter
      (fun s ->
        reach.(v).(s) <- true;
        for w = 0 to n - 1 do
          if reach.(s).(w) then reach.(v).(w) <- true
        done)
      (Dag.succs dag v)
  done;
  let inside v = List.mem v nodes in
  let witness w =
    (not (inside w))
    && List.exists (fun a -> reach.(a).(w)) nodes
    && List.exists (fun b -> reach.(w).(b)) nodes
  in
  not (List.exists witness (List.init n Fun.id))

let same_circuit msg (a : Circuit.t) (b : Circuit.t) =
  check_int (msg ^ ": qubits") a.Circuit.n_qubits b.Circuit.n_qubits;
  Alcotest.(check (list string))
    msg
    (List.map Gate.app_to_string a.Circuit.gates)
    (List.map Gate.app_to_string b.Circuit.gates)

let suite_physical =
  lazy
    (List.map
       (fun (e : Suite.entry) ->
         ( e.Suite.name,
           (Transpile.run ~coupling:(Device.coupling Device.lattice)
              (e.Suite.build ()))
             .Transpile.physical ))
       Suite.all)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

(* minor words per warm single-group [generate] hit, averaged over many
   calls so one-off allocations (a table resize) cannot decide it *)
let warm_hit_words device =
  let gen = Gen.model_default () in
  Gen.set_device gen device;
  let g, _ = Gen.group_of_apps [ Gate.app2 Gate.CX 0 1; Gate.app1 Gate.H 1 ] in
  let cold = Gen.generate gen g in
  check_true "first call synthesizes" (not cold.Gen.cache_hit);
  ignore (Gen.generate gen g);
  let calls = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Gen.generate gen g))
  done;
  let w1 = Gc.minor_words () in
  check_true "warm call is a hit" (Gen.generate gen g).Gen.cache_hit;
  (w1 -. w0) /. float_of_int calls

let warm_hit_budget device () =
  let words = warm_hit_words device in
  if words >= 5000.0 then
    Alcotest.failf "%s: a warm single-group hit allocates %.0f minor words \
                    (budget 5000)"
      (Device.name device) words

let namespace_follows_device () =
  let gen = Gen.model_default () in
  let c = Cache.create () in
  Gen.set_shared_cache gen (Some c);
  let epoch e = Drift.apply ~seed:7 ~epoch:e Device.ring in
  let ns0 = Device.cache_namespace (epoch 0) in
  let ns1 = Device.cache_namespace (epoch 1) in
  check_true "drift epoch 1 has its own namespace"
    (ns0 <> "" && ns1 <> "" && ns0 <> ns1);
  (* one fresh group per step, so every step consults the shared cache
     and publishes under whatever namespace the generator holds *)
  let step i device expect =
    Gen.set_device gen device;
    let g, _ =
      Gen.group_of_apps
        [ Gate.app2 Gate.CX 0 1; Gate.app1 (Gate.RZ (Angle.const (float i))) 1 ]
    in
    ignore (Gen.generate gen g);
    check_true
      (Printf.sprintf "step %d: published under the device namespace" i)
      (Cache.probe c (expect ^ Gen.key g) <> None);
    List.iter
      (fun other ->
        if other <> expect then
          check_true
            (Printf.sprintf "step %d: nothing under another namespace" i)
            (Cache.probe c (other ^ Gen.key g) = None))
      [ ""; ns0; ns1 ]
  in
  step 1 (epoch 0) ns0;
  step 2 (epoch 1) ns1;
  step 3 (epoch 0) ns0;
  step 4 Device.lattice ""

(* ------------------------------------------------------------------ *)
(* Preprocessing and convexity                                         *)
(* ------------------------------------------------------------------ *)

let preprocess_suite () =
  List.iter
    (fun (name, c) ->
      List.iter
        (fun maxN ->
          same_circuit
            (Printf.sprintf "%s maxN %d" name maxN)
            (preprocess_span_list c ~maxN)
            (Candidates.preprocess c ~maxN))
        [ 2; 3 ])
    (Lazy.force suite_physical)

let preprocess_random =
  QCheck.Test.make ~count:300 ~name:"preprocess = span-list oracle"
    QCheck.(pair (int_range 2 4) (arb_circuit ~n:5 ~max_gates:40 ()))
    (fun (maxN, c) ->
      let a = preprocess_span_list c ~maxN
      and b = Candidates.preprocess c ~maxN in
      a.Circuit.n_qubits = b.Circuit.n_qubits
      && List.map Gate.app_to_string a.Circuit.gates
         = List.map Gate.app_to_string b.Circuit.gates)

(* random DAGs: dependence DAGs of random circuits, strict or with a
   pseudo-random commutation relation dropping some edges (which gives
   shapes program-order DAGs never have), and a random node subset *)
let is_convex_matches_brute =
  QCheck.Test.make ~count:500 ~name:"windowed is_convex = brute force"
    QCheck.(
      triple bool (arb_circuit ~n:4 ~max_gates:24 ())
        (list_of_size Gen.(int_range 0 6) (int_bound 1000)))
    (fun (relaxed, c, picks) ->
      let dag =
        if relaxed then
          Dag.of_circuit_relaxed
            ~commute:(fun a b -> Hashtbl.hash (a, b) land 3 = 0)
            c
        else Dag.of_circuit c
      in
      let n = Dag.n_nodes dag in
      let nodes = List.sort_uniq compare (List.map (fun p -> p mod n) picks) in
      Rewrite.is_convex dag nodes = convex_brute dag nodes)

(* ------------------------------------------------------------------ *)
(* Compile                                                             *)
(* ------------------------------------------------------------------ *)

let finalize_pricing_matches () =
  List.iter
    (fun name ->
      let c = List.assoc name (Lazy.force suite_physical) in
      let gen = Gen.model_default () in
      let r = Paqoc.compile gen c in
      check_float ~eps:0.0 (name ^ ": latency")
        (Pricing.circuit_latency gen r.Paqoc.grouped) r.Paqoc.latency;
      check_float ~eps:0.0 (name ^ ": esp")
        (Pricing.circuit_esp gen r.Paqoc.grouped) r.Paqoc.esp)
    [ "bb84"; "simon"; "qft"; "bv" ]

(* a one-qubit chain: preprocessing folds it into one group, so the QOC
   backend runs one small GRAPE synthesis *)
let tiny = Circuit.make ~n_qubits:1 [ Gate.app1 Gate.H 0; Gate.app1 Gate.T 0 ]

let timed f =
  let t0 = Clock.now_s () in
  let r = f () in
  (r, Clock.now_s () -. t0)

let compile_cost_model () =
  let r, outer = timed (fun () -> Paqoc.compile (Gen.model_default ()) tiny) in
  check_true "modeled QOC time is positive" (r.Paqoc.qoc_seconds > 0.0);
  check_true "search is the wall time" (r.Paqoc.search_seconds <= outer);
  check_float ~eps:0.0 "cost = modeled QOC + wall"
    (r.Paqoc.qoc_seconds +. r.Paqoc.search_seconds)
    r.Paqoc.compile_seconds

let compile_cost_qoc () =
  let r, outer = timed (fun () -> Paqoc.compile (Gen.qoc_default ()) tiny) in
  check_true "GRAPE ran" (r.Paqoc.qoc_seconds > 0.0);
  (* the cost is the compile's own wall time: it cannot exceed the wall
     time measured around the call, which counting GRAPE twice would *)
  check_true
    (Printf.sprintf "cost %.6f s within the outer wall %.6f s"
       r.Paqoc.compile_seconds outer)
    (r.Paqoc.compile_seconds <= outer);
  check_true "cost covers GRAPE" (r.Paqoc.compile_seconds >= r.Paqoc.qoc_seconds);
  check_float ~eps:1e-9 "search = wall - QOC"
    (r.Paqoc.compile_seconds -. r.Paqoc.qoc_seconds)
    r.Paqoc.search_seconds

let suite =
  [ case "generator: warm hit on the lattice stays under 5k minor words"
      (warm_hit_budget Device.lattice);
    case "generator: warm hit on heavy-hex stays under 5k minor words"
      (warm_hit_budget Device.heavy_hex);
    case "generator: stored namespace follows set_device and drift epochs"
      namespace_follows_device;
    case "preprocess: linear pairing = span-list oracle on the suite"
      preprocess_suite;
    qcheck preprocess_random;
    qcheck is_convex_matches_brute;
    case "compile: finalize batch prices exactly as Pricing"
      finalize_pricing_matches;
    case "compile cost: model backend is modeled QOC + wall" compile_cost_model;
    case "compile cost: QOC backend counts GRAPE once" compile_cost_qoc
  ]

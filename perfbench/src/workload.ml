(* The three workloads: their requests, one timed pass, and the
   correctness gates that run outside the timed region. *)

module Protocol = Paqoc_pulse.Protocol
module Cache = Paqoc_pulse.Cache
module Server = Paqoc_pulse.Server
module Service = Paqoc_service.Service
module Pulse_ir = Paqoc_service.Pulse_ir
module Suite = Paqoc_benchmarks.Suite
module Latency_table = Paqoc_benchmarks.Latency_table
module Sweep_table = Paqoc_benchmarks.Sweep_table
module Circuit = Paqoc_circuit.Circuit
module V = Paqoc.Variational

type request =
  | Compile of string * Protocol.compile_request  (** benchmark name *)
  | Sweep of int list * Protocol.recompile_request
      (** indices of the seeded sweep iterations this request carries *)

type result =
  | Compiled of string * Protocol.compile_result
  | Swept of int list * Protocol.sweep_result

type pass = {
  cpu_s : float;  (** CPU seconds of the pass (see [Bclock]) *)
  ref_s : float;  (** the same in reference seconds *)
  request_ms : float list;
      (** client-side reference milliseconds per request, in order *)
  results : result option list;  (** [None]: raised or refused *)
  ledger : Replay.ledger;
  replays : Replay.compiled list;  (** traced in-process passes, in order *)
  cache : Cache.stats;  (** cache activity during the pass *)
  cache_bytes : int;  (** backing file size after the pass *)
}

(* A set-up workload, ready for passes. [check] holds one untraced
   pass to the workload's gates and returns one verdict per request:
   [Some reason] is a failed request. *)
type instance = {
  requests : request list;
  pass : traced:bool -> pass;
  check : pass -> string option list;
  cold_synthesized : int option;
      (** pulses a cold cache needs for this request set; [None] when
          every timed pass is itself cold and says so *)
  setup_ledger : Replay.ledger;  (** cache open/close done in set-up *)
  teardown : unit -> unit;
}

(* [prepare] runs once per run, untimed: it builds the request list and
   whatever the gates need. The set-up it returns is what [setup_s]
   times; the harness calls it several times. *)
type t = {
  name : string;
  kernel : Bclock.kernel;  (** the calibration kernel of its runs *)
  prepare : seed:int -> dir:string -> golden_dir:string -> unit -> instance;
}

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let shuffle ~seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let table1 = List.map (fun (e : Suite.entry) -> e.Suite.name) Suite.all

let compile_request ?(scheme = Protocol.M0) ?(backend = Protocol.Model)
    ?(max_n = 3) name =
  Compile
    ( name,
      { Protocol.default_compile with
        Protocol.circuit = Protocol.Benchmark name;
        scheme;
        backend;
        max_n
      } )

(* The sweep golden's shape: the qaoa sweep benchmark, 5 anchors, 32
   seeded iterations, shipped as [sweep_chunks] requests. *)
let sweep_iterations = 32
let sweep_chunks = 4
let sweep_anchors = 5

let sweep_requests ~seed =
  let params =
    Circuit.free_params ((Suite.sweep_find "qaoa").Suite.sweep_build ())
  in
  let angles = V.sweep_angles ~seed ~n:sweep_iterations params in
  let per = sweep_iterations / sweep_chunks in
  List.init sweep_chunks (fun c ->
      let ix = List.init per (fun i -> (c * per) + i) in
      Sweep
        ( ix,
          { Protocol.default_recompile with
            Protocol.rc_circuit = Protocol.Benchmark "qaoa";
            rc_anchors = sweep_anchors;
            rc_angles = List.map (List.nth angles) ix
          } ))

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let file_bytes path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let stats_delta (a : Cache.stats) (b : Cache.stats) =
  { Cache.hits = b.Cache.hits - a.Cache.hits;
    misses = b.Cache.misses - a.Cache.misses;
    canonical_hits = b.Cache.canonical_hits - a.Cache.canonical_hits;
    publishes = b.Cache.publishes - a.Cache.publishes;
    compactions = b.Cache.compactions - a.Cache.compactions;
    appends = b.Cache.appends - a.Cache.appends
  }

let describe_exn = function
  | Failure m -> m
  | e -> Printexc.to_string e

(* Runs [requests] in order through [exec], timing each one on [m]. *)
let drive m exec requests =
  let ms = ref [] and results = ref [] in
  List.iter
    (fun req ->
      let r, s =
        Bclock.step m (fun () ->
            match exec req with
            | r -> Some r
            | exception e ->
              prerr_endline ("perfbench: request failed: " ^ describe_exn e);
              None)
      in
      ms := (s *. 1000.0) :: !ms;
      results := r :: !results)
    requests;
  (List.rev !ms, List.rev !results)

(* One in-process pass from a fresh file-backed cache: open, serve every
   request through [Service.handle] (or, traced, through the replay),
   close. Open and close are part of the pass time, as in a CLI run. *)
let cold_pass ~path ~traced requests =
  let l = Replay.ledger () in
  if Sys.file_exists path then Sys.remove path;
  Gc.full_major ();
  let m = Bclock.meter () in
  let cache, _ =
    Bclock.step m (fun () ->
        Bclock.timed
          (fun () -> Cache.open_file path)
          (fun s -> l.cache_open_s <- s))
  in
  let replays = ref [] in
  let exec = function
    | Compile (name, req) when traced ->
      let c =
        Bclock.timed
          (fun () -> Replay.compile l ~cache req)
          (fun s -> l.handle_s <- l.handle_s +. s)
      in
      replays := c :: !replays;
      Compiled (name, c.Replay.result)
    | Compile (name, req) ->
      Compiled (name, Service.handle ~cache ~deadline:None req)
    | Sweep (ix, req) ->
      Swept (ix, Service.sweep_handle ~cache ~deadline:None req)
  in
  let request_ms, results = drive m exec requests in
  let stats = Cache.stats cache in
  ignore
    (Bclock.step m (fun () ->
         Bclock.timed
           (fun () -> Cache.close cache)
           (fun s -> l.cache_close_s <- s)));
  { cpu_s = m.Bclock.cpu_s;
    ref_s = m.Bclock.ref_s;
    request_ms;
    results;
    ledger = l;
    replays = List.rev !replays;
    cache = stats;
    cache_bytes = file_bytes path
  }

(* Pulses the compile requests of a pass synthesized. *)
let synthesized p =
  List.fold_left
    (fun acc -> function
      | Some (Compiled (_, r)) -> acc + r.Protocol.synthesized
      | _ -> acc)
    0 p.results

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Field-by-field equality of two compile results, ignoring the
   compile-cost figure, which is wall clock. *)
let same_result (a : Protocol.compile_result) (b : Protocol.compile_result) =
  { a with Protocol.compile_seconds = 0.0 }
  = { b with Protocol.compile_seconds = 0.0 }

let same_outcome a b =
  match (a, b) with
  | Compiled (n, r), Compiled (m, s) -> n = m && same_result r s
  | Swept (i, r), Swept (j, s) -> i = j && r = s
  | _ -> false

let verdicts pass f =
  List.map
    (function None -> Some "request failed or was refused" | Some r -> f r)
    pass.results

let no_fallback (r : Protocol.compile_result) =
  if r.Protocol.fallbacks > 0 then
    Some (Printf.sprintf "%d fallback pulses" r.Protocol.fallbacks)
  else None

(* ------------------------------------------------------------------ *)
(* model-suite-cold                                                    *)
(* ------------------------------------------------------------------ *)

(* dnn alone is about two thirds of a model pass; the warm-up passes
   leave it out to keep set-up short *)
let warm_up_names names = List.filter (fun n -> n <> "dnn") names

let model_suite_cold ?(names = table1) () =
  let prepare ~seed ~dir ~golden_dir =
    let golden =
      Latency_table.parse
        (read_file (Filename.concat golden_dir "latency_table.txt"))
    in
    let requests = shuffle ~seed (List.map compile_request names) in
    let path = Filename.concat dir "model-suite-cold.db" in
    let pass ~traced = cold_pass ~path ~traced requests in
    let check p =
      verdicts p (function
        | Compiled (name, r) -> (
          match
            List.find_opt
              (fun (g : Latency_table.row) -> g.Latency_table.name = name)
              golden
          with
          | None -> Some ("no golden row for " ^ name)
          | Some g ->
            if r.Protocol.latency <> g.Latency_table.latency
               || r.Protocol.episodes <> g.Latency_table.n_groups
            then
              Some
                (Printf.sprintf
                   "%s: latency %.0f / %d episodes, golden %.0f / %d" name
                   r.Protocol.latency r.Protocol.episodes
                   g.Latency_table.latency g.Latency_table.n_groups)
            else no_fallback r)
        | Swept _ -> Some "unexpected sweep result")
    in
    fun () ->
      (* build and route every circuit, then a cold warm-up pass *)
      List.iter
        (fun name ->
          ignore
            (Paqoc_topology.Transpile.run
               ~coupling:(Paqoc_topology.Coupling.grid ~rows:5 ~cols:5)
               ((Suite.find name).Suite.build ())))
        names;
      ignore
        (cold_pass ~path ~traced:false
           (List.map compile_request (warm_up_names names)));
      { requests;
        pass;
        check;
        cold_synthesized = None;
        setup_ledger = Replay.ledger ();
        teardown = (fun () -> if Sys.file_exists path then Sys.remove path)
      }
  in
  { name = "model-suite-cold"; kernel = Bclock.Compute; prepare }

(* ------------------------------------------------------------------ *)
(* qoc-small                                                           *)
(* ------------------------------------------------------------------ *)

let qoc_names = [ "bb84"; "simon"; "bv" ]

(* Every waveform a replayed compile ships must re-simulate to its
   recorded fidelity within [ir_tol]. *)
let ir_tol = 1e-9

let verify_waveforms (c : Replay.compiled) =
  let r = c.Replay.result in
  let ir =
    Pulse_ir.of_report ~device:c.Replay.device ~gen:c.Replay.gen
      ~grouped:c.Replay.grouped ~latency:r.Protocol.latency
      ~esp:r.Protocol.esp
  in
  match Pulse_ir.verify ~tol:ir_tol ir with
  | Error e -> Some ("pulse IR verification failed: " ^ e)
  | Ok v when v.Pulse_ir.checked = 0 -> Some "no waveform was re-verified"
  | Ok _ -> None

let qoc_request = compile_request ~backend:Protocol.Qoc ~max_n:2

let qoc_small ?(names = qoc_names) () =
  (* A fixed order, whatever the seed: on the QOC backend a compile's
     GRAPE warm starts depend on the shape signatures earlier requests
     published to the shared cache, so a shuffled order would change
     the pulses, not only the timing. *)
  let prepare ~seed:_ ~dir ~golden_dir:_ =
    let requests = List.map qoc_request names in
    let path = Filename.concat dir "qoc-small.db" in
    (* the reference: one replayed pass on a fresh cache, whose
       generators still hold the waveforms; the first traced pass
       doubles as it *)
    let reference = ref None in
    let pass ~traced =
      let p = cold_pass ~path ~traced requests in
      if traced && Option.is_none !reference then reference := Some p;
      p
    in
    let by_request =
      lazy
        (let r =
           match !reference with
           | Some p -> p
           | None -> cold_pass ~path ~traced:true requests
         in
         let irs =
           if List.length r.replays = List.length r.results then
             List.map verify_waveforms r.replays
           else List.map (fun _ -> Some "reference replay failed") r.results
         in
         List.combine r.results irs)
    in
    let check p =
      List.map2
        (fun got (want, ir_verdict) ->
          match (got, want) with
          | None, _ -> Some "request failed or was refused"
          | _, None -> Some "reference replay failed"
          | Some g, Some w ->
            if not (same_outcome g w) then
              Some "result differs from the replayed reference"
            else (
              match (ir_verdict, g) with
              | (Some _ as v), _ -> v
              | None, Compiled (_, r) -> no_fallback r
              | None, Swept _ -> Some "unexpected sweep result"))
        p.results (Lazy.force by_request)
    in
    fun () ->
      (* warm-up: every request but the slowest (bv), cold *)
      ignore
        (cold_pass ~path ~traced:false
           (List.map qoc_request (List.filter (fun n -> n <> "bv") names)));
      { requests;
        pass;
        check;
        cold_synthesized = None;
        setup_ledger = Replay.ledger ();
        teardown = (fun () -> if Sys.file_exists path then Sys.remove path)
      }
  in
  { name = "qoc-small"; kernel = Bclock.Stream; prepare }

(* ------------------------------------------------------------------ *)
(* daemon-warm-mix                                                     *)
(* ------------------------------------------------------------------ *)

let golden_sweep_seed = 11

let copy_file src dst =
  let data = read_file src in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let sweep_rows ix (s : Protocol.sweep_result) =
  String.concat "" (List.map2 Service.sweep_row ix s.Protocol.iterations)

(* The sweep rows of one response against the golden table. *)
let sweep_matches_golden golden ix (s : Protocol.sweep_result) =
  List.for_all2
    (fun i (it : Protocol.sweep_iteration) ->
      match
        List.find_opt (fun (g : Sweep_table.row) -> g.Sweep_table.iter = i) golden
      with
      | None -> false
      | Some g ->
        g.Sweep_table.latency = it.Protocol.it_latency
        && g.Sweep_table.esp = it.Protocol.it_esp
        && g.Sweep_table.interp = it.Protocol.it_interp
        && g.Sweep_table.fallback = it.Protocol.it_fallback
        && g.Sweep_table.resynth = it.Protocol.it_resynth)
    ix s.Protocol.iterations

let daemon_warm_mix ?(names = table1) () =
  let prepare ~seed ~dir ~golden_dir =
    let sweeps = sweep_requests ~seed in
    let fixed_order =
      List.map (compile_request ~scheme:Protocol.Minf) names @ sweeps
    in
    let requests = shuffle ~seed fixed_order in
    (* Fill the cache once, in-process and in a fixed order, so the
       pulses it synthesises do not depend on the seed; then take the
       in-process row of every request against the warm cache — the rows
       every daemon row must equal byte for byte. *)
    let warm_path = Filename.concat dir "daemon-warm-mix.warm.db" in
    let reference, cold_synthesized =
      Cache.with_file warm_path (fun cache ->
          let serve = function
            | Compile (name, req) ->
              Compiled (name, Service.handle ~cache ~deadline:None req)
            | Sweep (ix, req) ->
              Swept (ix, Service.sweep_handle ~cache ~deadline:None req)
          in
          let fill = List.map serve fixed_order in
          let synthesized =
            List.fold_left
              (fun acc -> function
                | Compiled (_, r) -> acc + r.Protocol.synthesized
                | Swept _ -> acc)
              0 fill
          in
          let row = function
            | Compiled (name, r) -> Service.suite_row name r
            | Swept (ix, s) -> sweep_rows ix s
          in
          (List.map (fun req -> (req, row (serve req))) fixed_order, synthesized))
    in
    let golden_sweep =
      lazy
        (Sweep_table.parse
           (read_file (Filename.concat golden_dir "sweep_table.txt")))
    in
    let check p =
      List.map2
        (fun req got ->
          let want = List.assq req reference in
          match (req, got) with
          | _, None -> Some "request failed or was refused"
          | Compile _, Some (Compiled (name, r)) ->
            if r.Protocol.synthesized > 0 then
              Some
                (Printf.sprintf "%s: warm request synthesized %d pulses" name
                   r.Protocol.synthesized)
            else if Service.suite_row name r <> want then
              Some (name ^ ": daemon row differs from in-process row")
            else no_fallback r
          | Sweep _, Some (Swept (ix, s)) ->
            if sweep_rows ix s <> want then
              Some "sweep: daemon rows differ from in-process rows"
            else if
              seed = golden_sweep_seed
              && not (sweep_matches_golden (Lazy.force golden_sweep) ix s)
            then Some "sweep rows differ from the sweep golden"
            else None
          | _ -> Some "result kind does not match the request")
        requests p.results
    in
    (* set-up: a copy of the warm cache file under a live daemon, one
       client connection, and a warm-up of one compile and one sweep *)
    let warm_up = [ List.hd fixed_order; List.hd sweeps ] in
    fun () ->
      let setup_ledger = Replay.ledger () in
      let path = Filename.concat dir "daemon-warm-mix.db" in
      copy_file warm_path path;
      let cache =
        Bclock.timed
          (fun () -> Cache.open_file path)
          (fun s -> setup_ledger.cache_open_s <- s)
      in
      (* the handlers the daemon serves: [Service]'s own, or — in a
         traced pass — the replay and the sweep handler under the
         benchmark's timers, charged to the current pass's ledger *)
      let traced = ref false and current = ref (Replay.ledger ()) in
      let handler ~deadline req =
        if !traced then
          let l = !current in
          Bclock.timed
            (fun () -> (Replay.compile l ~cache req).Replay.result)
            (fun s -> l.handle_s <- l.handle_s +. s)
        else Service.handle ~cache ~deadline req
      in
      let sweep ~deadline req =
        if !traced then
          let l = !current in
          Bclock.timed
            (fun () -> Service.sweep_handle ~cache ~deadline req)
            (fun s -> l.sweep_s <- l.sweep_s +. s)
        else Service.sweep_handle ~cache ~deadline req
      in
      let socket_path = Filename.concat dir "daemon.sock" in
      let server =
        Server.create ~cache ~sweep (Server.default_config ~socket_path) handler
      in
      let thread = Thread.create Server.run server in
      let stop () =
        Server.request_stop server;
        Thread.join thread;
        Bclock.timed
          (fun () -> Cache.close cache)
          (fun s -> setup_ledger.cache_close_s <- s);
        if Sys.file_exists path then Sys.remove path
      in
      let fd =
        try Server.connect socket_path
        with e ->
          stop ();
          raise e
      in
      let teardown () =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        stop ()
      in
      let rpc = function
        | Compile (name, req) -> (
          match Server.rpc fd (Protocol.Compile req) with
          | Protocol.Result r -> Compiled (name, r)
          | Protocol.Refused e -> failwith ("refused: " ^ Protocol.error_name e)
          | _ -> failwith "unexpected daemon response")
        | Sweep (ix, req) -> (
          match Server.rpc fd (Protocol.Recompile req) with
          | Protocol.Sweep s -> Swept (ix, s)
          | Protocol.Refused e -> failwith ("refused: " ^ Protocol.error_name e)
          | _ -> failwith "unexpected daemon response")
      in
      let run_pass ~traced:tr reqs =
        let l = Replay.ledger () in
        current := l;
        traced := tr;
        Gc.full_major ();
        let s0 = Cache.stats cache in
        let m = Bclock.meter () in
        let request_ms, results =
          drive m
            (fun req ->
              Bclock.timed (fun () -> rpc req) (fun s -> l.rpc_s <- l.rpc_s +. s))
            reqs
        in
        traced := false;
        { cpu_s = m.Bclock.cpu_s;
          ref_s = m.Bclock.ref_s;
          request_ms;
          results;
          ledger = l;
          replays = [];
          cache = stats_delta s0 (Cache.stats cache);
          cache_bytes = file_bytes path
        }
      in
      (match run_pass ~traced:false warm_up with
      | _ -> ()
      | exception e ->
        teardown ();
        raise e);
      { requests;
        pass = (fun ~traced -> run_pass ~traced requests);
        check;
        cold_synthesized = Some cold_synthesized;
        setup_ledger;
        teardown
      }
  in
  { name = "daemon-warm-mix"; kernel = Bclock.Compute; prepare }

let all () = [ model_suite_cold (); daemon_warm_mix (); qoc_small () ]

type qubit_cal = { anharmonicity : float; drive_bound : float }

type t = {
  name : string;
  description : string;
  coupling : Coupling.t;
  edge_mu : ((int * int) * float) list;
  qubits : qubit_cal array;
}

let default_mu = 0.02
let drive_ratio = 5.0
let default_anharmonicity = -0.34

let sorted_edges coupling =
  List.sort compare
    (List.map
       (fun (a, b) -> if a <= b then (a, b) else (b, a))
       (Coupling.edges coupling))

let uniform_cal n =
  Array.init n (fun _ ->
      { anharmonicity = default_anharmonicity;
        drive_bound = drive_ratio *. default_mu })

(* Deterministic fabrication spread for the named non-lattice devices:
   a fixed arithmetic pattern over the edge endpoints (resp. qubit
   index), spanning +-1% around the nominal value. Documented in
   docs/devices.md; changing it changes every non-lattice device hash. *)
let edge_spread a b =
  1.0 +. (0.01 *. float_of_int ((((7 * a) + (13 * b)) mod 9) - 4) /. 4.0)

let qubit_spread q = 1.0 +. (0.01 *. float_of_int (((11 * q) mod 9) - 4) /. 4.0)

let calibrated ~name ~description coupling =
  let edges = sorted_edges coupling in
  { name;
    description;
    coupling;
    edge_mu =
      List.map (fun (a, b) -> ((a, b), default_mu *. edge_spread a b)) edges;
    qubits =
      Array.init (Coupling.n_qubits coupling) (fun q ->
          { anharmonicity = default_anharmonicity *. qubit_spread q;
            drive_bound = drive_ratio *. default_mu *. qubit_spread q })
  }

let uniform ~name ~description coupling =
  let edges = sorted_edges coupling in
  { name;
    description;
    coupling;
    edge_mu = List.map (fun e -> (e, default_mu)) edges;
    qubits = uniform_cal (Coupling.n_qubits coupling)
  }

let lattice =
  uniform ~name:"lattice"
    ~description:"paper's 5x5 transmon lattice, uniform calibration"
    (Coupling.grid ~rows:5 ~cols:5)

let heavy_hex =
  calibrated ~name:"heavy-hex"
    ~description:"IBM heavy-hexagon, distance 5 (55 qubits)"
    (Coupling.heavy_hex ~distance:5)

let square =
  calibrated ~name:"square" ~description:"6x6 nearest-neighbour grid"
    (Coupling.grid ~rows:6 ~cols:6)

let ring =
  calibrated ~name:"ring" ~description:"25-qubit ring"
    (Coupling.ring 25)

let all = [ lattice; heavy_hex; square; ring ]
let find n = List.find_opt (fun d -> String.equal d.name n) all

let grid ~rows ~cols =
  if rows = 5 && cols = 5 then lattice
  else
    uniform
      ~name:(Printf.sprintf "%dx%d" rows cols)
      ~description:
        (Printf.sprintf "%dx%d nearest-neighbour grid, uniform calibration"
           rows cols)
      (Coupling.grid ~rows ~cols)

let name d = d.name
let coupling d = d.coupling
let n_qubits d = Coupling.n_qubits d.coupling

let edge_mu_of d a b =
  let e = if a <= b then (a, b) else (b, a) in
  List.assoc e d.edge_mu

let synthesis_mu d =
  match d.edge_mu with
  | [] -> default_mu
  | (_, m0) :: rest -> List.fold_left (fun acc (_, m) -> min acc m) m0 rest

let drive_bound d =
  if Array.length d.qubits = 0 then drive_ratio *. default_mu
  else Array.fold_left (fun acc c -> min acc c.drive_bound) infinity d.qubits

let hash d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "paqoc-device v1 %d\n" (n_qubits d));
  List.iter
    (fun ((a, b), mu) ->
      Buffer.add_string buf (Printf.sprintf "e %d %d %.17g\n" a b mu))
    d.edge_mu;
  Array.iteri
    (fun q c ->
      Buffer.add_string buf
        (Printf.sprintf "q %d %.17g %.17g\n" q c.anharmonicity c.drive_bound))
    d.qubits;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let lattice_hash = lazy (hash lattice)

(* the default device is the common case and needs no hash at all *)
let cache_namespace d =
  if d == lattice then ""
  else
    let h = hash d in
    if String.equal h (Lazy.force lattice_hash) then ""
    else "dev:" ^ h ^ "|"

let pp ppf d =
  Format.fprintf ppf "%s: %d qubits, %d edges, hash %s" d.name (n_qubits d)
    (List.length d.edge_mu) (hash d)

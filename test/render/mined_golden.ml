(* The mined-patterns golden (test/golden/mined_patterns.txt).

   Pins the APA miner's full output on every suite circuit plus the
   extras, logical (untranspiled), under the default config and under
   [min_support = 2] (the variational scheme's config): rank order,
   codes, supports, the occurrence lists (by digest) and each pattern's
   representative body with its concrete angles. The closing table pins
   what paqoc-minf builds from those patterns on the transpiled suite. *)

module Gate = Paqoc_circuit.Gate
module Miner = Paqoc_mining.Miner
module Pattern = Paqoc_mining.Pattern
module Apa = Paqoc_mining.Apa
module Suite = Paqoc_benchmarks.Suite

let configs =
  [ ("default", Miner.default_config);
    ("support2", { Miner.default_config with Miner.min_support = 2 }) ]

let occurrences_digest occs =
  let buf = Buffer.create 256 in
  List.iter
    (fun (o : Pattern.occurrence) ->
      List.iter
        (fun v -> Buffer.add_string buf (string_of_int v ^ ","))
        o.Pattern.nodes;
      Buffer.add_char buf '/';
      Array.iter
        (fun q -> Buffer.add_string buf (string_of_int q ^ ","))
        o.Pattern.wire_map;
      Buffer.add_char buf ';')
    occs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let render_found buf rank (f : Miner.found) =
  let p = f.Miner.pattern in
  Printf.bprintf buf
    "%d %s support=%d coverage=%d size=%d arity=%d occs=%d %s\n" rank p.Pattern.code f.Miner.support f.Miner.coverage p.Pattern.size
    p.Pattern.arity
    (List.length f.Miner.occurrences)
    (occurrences_digest f.Miner.occurrences);
  List.iter
    (fun g -> Buffer.add_string buf (Format.asprintf "    %a\n" Gate.pp_app g))
    p.Pattern.gates

let render_minf buf =
  List.iter
    (fun (e : Suite.entry) ->
      let gen = Paqoc_pulse.Generator.model_default () in
      let t = Suite.transpiled e in
      let r =
        Paqoc.compile ~scheme:Paqoc.paqoc_minf gen
          t.Paqoc_topology.Transpile.physical
      in
      Printf.bprintf buf "%s %.17g %d %.6f %d %d\n" e.Suite.name
        r.Paqoc.latency r.Paqoc.n_groups r.Paqoc.esp
        r.Paqoc.apa.Apa.substitutions r.Paqoc.apa.Apa.m_used)
    Suite.all

let render () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "# paqoc golden mined patterns v1\n\
     # per circuit and miner config: rank code support coverage size arity\n\
     # occurrence-count occurrence-digest, then the representative body\n\
     # regenerate with: make update-golden\n";
  List.iter
    (fun (e : Suite.entry) ->
      let c = e.Suite.build () in
      List.iter
        (fun (cname, config) ->
          Printf.bprintf buf "== %s %s\n" e.Suite.name cname;
          List.iteri
            (fun i f -> render_found buf (i + 1) f)
            (Miner.mine ~config c))
        configs)
    (Suite.all @ Suite.extras);
  Buffer.add_string buf
    "== paqoc-minf: benchmark latency_dt episodes esp substitutions m_used \
     (5x5 grid, model backend)\n";
  render_minf buf;
  Buffer.contents buf

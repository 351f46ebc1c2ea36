(** The frequent-subcircuits miner (the GraMi stand-in of Section III-A).

    Pattern-growth mining over the circuit's dependence DAG: start from
    single gates, repeatedly extend each embedding by a DAG-adjacent gate
    while the embedding stays convex (replaceable by one gate), within the
    qubit and size caps, and keep patterns whose {e disjoint} support
    clears the threshold.

    Each level tries each candidate node set once: a set reached again,
    from another parent or another embedding, is dropped before the
    convexity check and canonicalisation, since it would get the same
    code. Every node is labelled once per call.

    Two growth caps keep pathological circuits cheap, and both decide the
    output when they bind:
    {ul
    {- {b 4000 embeddings per pattern} per level: further embeddings of a
       code already holding 4000 are dropped (they are not grown further,
       and they do not count toward its support);}
    {- {b 4000 new patterns per level}: before growing each frequent
       pattern of the previous level, the miner checks how many codes are
       new at this level; from 4000 on, it grows no further pattern.}}

    Patterns are grown in the iteration order of a per-level hash table
    keyed by code, so which patterns and embeddings survive a binding cap
    follows that order. The representative body of a pattern is the
    first embedding found with its code.

    Angle handling follows the paper: by default rotation parameters are
    rendered {e symbolically} (angle-blind), so the QFT's
    [h]-on-[cu1]-target pattern recurs even though each CU1 carries a
    different constant angle, and parameterised circuits mine before their
    parameters are bound. *)

type config = {
  min_support : int;  (** disjoint occurrences required; paper uses > 2 *)
  max_qubits : int;  (** the APA-gate size knob (maxN), default 3 *)
  max_gates : int;  (** pattern size cap, default 6 *)
  min_gates : int;  (** ignore trivial patterns below this, default 2 *)
  max_patterns : int;  (** cap on returned patterns *)
  abstract_angles : bool;  (** angle-blind labels (default true) *)
}

val default_config : config

type found = {
  pattern : Pattern.t;
  occurrences : Pattern.occurrence list;
      (** all embeddings, possibly overlapping, sorted by first node *)
  support : int;  (** size of a maximal disjoint subset *)
  coverage : int;  (** [support * pattern.size] — original gates covered *)
}

(** [mine ?config c] returns frequent patterns sorted by decreasing
    coverage (the paper's selection criterion), ties broken by size then
    code. *)
val mine : ?config:config -> Paqoc_circuit.Circuit.t -> found list

(** [label_of config] is the node labeler mining used (exposed so APA
    substitution canonicalises occurrences identically). *)
val label_of : config -> Paqoc_circuit.Gate.kind -> string

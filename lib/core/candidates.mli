(** Merge-candidate generation and criticality pruning (Section V-A-1).

    Candidates are pairs of directly dependent gates (DAG edges — the
    "two-gate grouping" of each hierarchical search level). This module
    holds the Observation-1 pre-processing; the search ([Merger.run])
    admits candidates on the fly. The pruning
    pipeline applies, in order:

    + the pre-processing rule from Observation 1 — consecutive gates whose
      union introduces no new qubit are merged outright (they can only
      help and create no false dependencies);
    + the validity rule — pairs with an indirect dependence path are
      dropped (merging them would deadlock the schedule);
    + the size cap [maxN];
    + the criticality rule — Case III pairs (neither gate on the critical
      path) are dropped: merging them cannot shorten the circuit. *)

(** [qubit_union a b] is the sorted set of qubits the merged gate would
    touch — the content-only ingredient of candidate admission, exposed
    so the incremental search can memoize it per gate pair. *)
val qubit_union :
  Paqoc_circuit.Gate.app -> Paqoc_circuit.Gate.app -> int list

(** [preprocess c ~maxN] exhaustively applies the Observation-1 rule
    (bounded by [maxN]) and returns the simplified circuit. *)
val preprocess : Paqoc_circuit.Circuit.t -> maxN:int -> Paqoc_circuit.Circuit.t

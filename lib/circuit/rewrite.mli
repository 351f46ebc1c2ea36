(** Circuit rewriting by contracting convex gate sets.

    Both APA-basis substitution (replacing a mined pattern occurrence) and
    PAQOC's customized-gate merging replace a set of DAG nodes with one
    opaque gate. The set must be {e convex} (no dependence path leaving and
    re-entering it); contraction then builds the quotient DAG and emits a
    stable topological linearisation, preserving the circuit's unitary. *)

(** [custom_of_nodes dag nodes ~name] packages the gates at [nodes]
    (program order) into a [Custom] gate application: body wires are local
    first-appearance indices, and the application's operands are the
    corresponding global qubits. *)
val custom_of_nodes : Dag.t -> int list -> name:string -> Gate.app

(** [custom_of_apps apps ~name] is {!custom_of_nodes} on gates given
    directly, already in program order. *)
val custom_of_apps : Gate.app list -> name:string -> Gate.app

(** [is_convex dag nodes] checks that no dependence path exits and
    re-enters [nodes]. Its scratch is sized to the id window
    [[min nodes, max nodes]], not to the DAG. *)
val is_convex : Dag.t -> int list -> bool

(** [contract c groups] replaces each [(nodes, replacement)] (disjoint,
    convex, node ids into [Dag.of_circuit c]) by its replacement gate and
    relinearises.
    @raise Invalid_argument on overlapping or non-convex groups. *)
val contract : Circuit.t -> (int list * Gate.app) list -> Circuit.t

(** [contract_mapped dag groups] is {!contract} on the circuit [dag] was
    built from ([Dag.of_circuit c]), reusing the caller's DAG instead of
    rebuilding it, plus the origin of every output gate:
    [old_of_new.(j)] is the old node id the [j]-th gate of the result
    survives from, or [-(gi+1)] when it is the replacement gate of
    [List.nth groups gi]. The incremental criticality engine's window
    splice is tested against exactly this layout. *)
val contract_mapped :
  Dag.t -> (int list * Gate.app) list -> Circuit.t * int array

(** Criticality analysis of a grouped circuit (Section V-A).

    Prices every gate application as a pulse episode through the shared
    generator, schedules the dependence DAG, and classifies each gate as
    critical (it lies on some longest path) or not. The three merge cases
    of the paper fall out of the per-pair classification. *)

type t = {
  circuit : Paqoc_circuit.Circuit.t;
  dag : Paqoc_circuit.Dag.t;
  sched : Paqoc_circuit.Dag.schedule;
}

(** [analyze gen c] prices and schedules [c]. *)
val analyze : Paqoc_pulse.Generator.t -> Paqoc_circuit.Circuit.t -> t

(** [is_critical t v] — node [v] lies on a longest path. *)
val is_critical : t -> int -> bool

(** [total t] is the whole-circuit latency. *)
val total : t -> float

(** [case_of t u v] classifies the merge pair per Section V-A:
    [`I] both critical, [`II] exactly one critical, [`III] neither. *)
val case_of : t -> int -> int -> [ `I | `II | `III ]

(** [latency t v] is node [v]'s episode latency. *)
val latency : t -> int -> float

(** [cp_after t v] is the paper's [CP(v)]: longest path from [v]'s end to
    the circuit's end, excluding [v] itself. *)
val cp_after : t -> int -> float

(** Incremental criticality engine.

    Maintains the same per-node quantities as {!analyze} — episode
    latency, earliest start, [CP]-after, critical membership — under
    merge edits. Nodes keep a stable uid for life and all per-node state
    lives in uid-indexed arrays; a merge is spliced into the committed
    state in place: the merged node replaces its group on the qubit
    wires, only the group's id window is re-ordered (by the same stable
    min-id Kahn as {!Paqoc_circuit.Rewrite.contract_mapped}), and
    dirty-region waves recompute only what the edit reaches. Every
    exposed value is bitwise equal to a from-scratch {!analyze} of the
    current circuit against the current generator state (see
    docs/incremental-search.md for the argument; the differential
    battery in test_search pins it).

    Nodes are addressed by position: positions [0 .. n_nodes - 1]
    follow the committed circuit's gate order, which is what
    {!Engine.circuit} and {!Engine.dag} number their gates by.

    Protocol: {!Engine.stage} applies a candidate edit in place, logging
    what it overwrites, and returns the trial total; {!Engine.commit}
    finishes the edit's [CP]-after wave and drops the log,
    {!Engine.discard} replays the log backwards. Between [stage] and
    [commit]/[discard], only {!Engine.staged_circuit} may be read.
    {!Engine.refresh} re-resolves episode prices after the pulse
    database changed under an unchanged circuit (e.g. a rolled-back
    merge attempt that still generated its pulse). Not thread-safe: one
    engine per search. *)
module Engine : sig
  type e

  (** [create gen c] prices and schedules [c] (one full analysis). *)
  val create : Paqoc_pulse.Generator.t -> Paqoc_circuit.Circuit.t -> e

  (** The committed circuit, materialised from the engine's order on
      each call.
      @raise Invalid_argument while an edit is staged. *)
  val circuit : e -> Paqoc_circuit.Circuit.t

  (** [Dag.of_circuit (circuit e)]: a view for callers that want a
      {!Paqoc_circuit.Dag.t}; the engine itself never builds one. *)
  val dag : e -> Paqoc_circuit.Dag.t

  val n_nodes : e -> int
  val total : e -> float
  val latency : e -> int -> float
  val est : e -> int -> float
  val cp_after : e -> int -> float
  val is_critical : e -> int -> bool

  (** [case_of e u v] — as {!case_of}. *)
  val case_of : e -> int -> int -> [ `I | `II | `III ]

  (** [gate e v] is the gate application at position [v]. *)
  val gate : e -> int -> Paqoc_circuit.Gate.app

  (** A flat snapshot of the committed schedule and DAG, for loops that
      visit every edge: node quantities by position, and every edge
      [(src.(k), dst.(k))] of [Dag.succs (dag e)] once, [src]
      ascending so each node's edges are contiguous. [slot.(k)] (below
      [n_slots]) is a stable id of the edge's source wire and
      [dst_uid.(k)] a stable id of the successor's gate.

      Identity contract: a slot stays with its source node and a uid
      with its gate for life, and once a node is committed neither is
      ever handed to another gate (only a discarded trial's ids are
      reused). So [(slot.(k), dst_uid.(k))] seen in two snapshots names
      the same pair of gates, and callers may key per-edge data on it
      across commits. test_search's "view slots and uids never name
      another gate" pins the contract. The arrays are reused and grown
      by {!fill_view}; entries past {!n_nodes} / [m] are garbage. *)
  type view = {
    mutable lat : float array;  (** {!latency} *)
    mutable cp : float array;  (** {!cp_after} *)
    mutable crit : bool array;  (** {!is_critical} *)
    mutable m : int;
    mutable src : int array;
    mutable dst : int array;
    mutable slot : int array;
    mutable dst_uid : int array;
    mutable n_slots : int;
  }

  val view : unit -> view

  (** [fill_view e w] snapshots the committed state into [w]. *)
  val fill_view : e -> view -> unit

  (** [has_indirect_path e u v] = [Dag.has_indirect_path (dag e) u v],
      allocation-free. *)
  val has_indirect_path : e -> int -> int -> bool

  (** [refresh e] folds any pulse-database changes into the committed
      state (discarding a staged edit first); no-op when the generator's
      price epoch is unchanged. *)
  val refresh : e -> unit

  (** [stage e groups] contracts [groups] (as {!Rewrite.contract}, node
      ids are positions) and returns the trial circuit total. Replaces
      any previously staged edit. Each replacement gate must act on
      exactly its group's qubits, and the groups' position spans
      [[min, max]] must be disjoint.
      @raise Invalid_argument on empty, overlapping or non-convex
      groups, overlapping spans or a replacement on other qubits. *)
  val stage :
    e -> (int list * Paqoc_circuit.Gate.app) list -> float

  (** The staged circuit, materialised on each call (raises when nothing
      is staged). *)
  val staged_circuit : e -> Paqoc_circuit.Circuit.t

  (** [commit e] adopts the staged edit (raises when nothing staged). *)
  val commit : e -> unit

  (** [discard e] abandons the staged edit (never raises). *)
  val discard : e -> unit
end

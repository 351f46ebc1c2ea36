(** Gate dependence DAG and critical-path machinery.

    Nodes are gate applications; there is an edge between two gates iff they
    share at least one qubit, directed by program order. Node ids follow
    program order, so the id order is always a valid topological order.

    The criticality quantities follow Section V-A of the paper: for a
    latency function [L], [cp_after x] is the longest [L]-weighted path from
    the {e end} of [x] to the circuit's end ({e excluding} [L(x)] itself,
    matching the paper's use of [CP(X)] in expressions like
    [L(A) + L(B) + CP(B)]), and a gate is {e critical} when it lies on some
    longest path of the whole circuit. *)

type t

(** {1 Construction} *)

(** [of_circuit c] builds the dependence DAG. *)
val of_circuit : Circuit.t -> t

(** [of_circuit_relaxed ~commute c] drops dependences between gates that
    [commute]: a gate depends on {e every} earlier non-commuting gate it
    shares a qubit with (not just the latest), since commuting
    intermediates no longer order them. Any topological order of the
    result reaches the same unitary as [c]. *)
val of_circuit_relaxed :
  commute:(Gate.app -> Gate.app -> bool) -> Circuit.t -> t

val n_nodes : t -> int
val n_qubits : t -> int

(** [gate dag v] is the gate application at node [v]. *)
val gate : t -> int -> Gate.app

(** Direct successors / predecessors (deduplicated, any order). *)
val succs : t -> int -> int list

val preds : t -> int -> int list

(** [nodes dag] is all node ids in topological (program) order. *)
val nodes : t -> int list

(** {1 Reachability} *)

(** [has_indirect_path dag u v] holds when a path of length at least two
    leads from [u] to [v]; merging [u] and [v] would then create a cycle,
    which makes the pair an invalid merge candidate. *)
val has_indirect_path : t -> int -> int -> bool

(** [reachable dag u v] holds when there is any directed path [u ->* v]
    (including [u = v]). *)
val reachable : t -> int -> int -> bool

(** A reusable reachability workspace: preallocated stamp marks and an
    int-array DFS stack, so repeated queries allocate nothing. Grows on
    demand; one workspace serves DAGs of any size but must not be used
    from two domains at once. *)
type reach_ws

(** [reach_ws n] is a workspace sized for [n]-node DAGs. *)
val reach_ws : int -> reach_ws

(** [has_indirect_path_ws ws dag u v] = [has_indirect_path dag u v],
    allocation-free. *)
val has_indirect_path_ws : reach_ws -> t -> int -> int -> bool

(** {1 Scheduling and criticality} *)

type schedule = {
  est : float array;  (** earliest start time of each node *)
  latency : float array;  (** [L] evaluated per node *)
  cp_after : float array;  (** longest path from node end to circuit end *)
  total : float;  (** whole-circuit latency (critical-path length) *)
  critical : bool array;  (** membership of some critical path *)
}

(** [schedule dag ~latency] computes ASAP start times, per-node [CP] values
    and critical-path membership under the gate latency function
    [latency]. *)
val schedule : t -> latency:(Gate.app -> float) -> schedule

(** [schedule_latencies dag lat] is {!schedule} with node [v]'s latency
    given as [lat.(v)] (the array becomes the result's [latency] field).
    @raise Invalid_argument unless [lat] has one entry per node. *)
val schedule_latencies : t -> float array -> schedule

(** [critical_path dag sched] is one maximal-latency path, in order. *)
val critical_path : t -> schedule -> int list

(** [to_circuit dag] linearises the DAG back to a circuit in a topological
    order (stable: program order). *)
val to_circuit : t -> Circuit.t

(** Canonical sub-circuit patterns.

    A pattern is a small gate sequence over local wires together with a
    canonical string code; two occurrences of the same recurring
    sub-circuit — possibly on different qubits, possibly with their
    parallel gates recorded in different program orders — get the same
    code. Operand positions inside each gate preserve the control/target
    edge labels of Fig 5, so the two "similar but not identical" blocks
    of the paper's example get distinct codes.

    {b The canonical code, exactly.} A linearisation renders as the
    concatenation, gate by gate, of [label@w1,w2,...;], where [label] is
    the gate's label and the [wi] are its operands' wires numbered by
    first appearance in that linearisation. Topological orders are
    visited depth-first, always trying the lowest free node id first, and
    only the first 120 visited count. The code is the smallest rendering
    (byte-wise) among those. When several of those orders render the same
    smallest code, the one visited {e last} supplies the pattern body and
    the occurrence's wire map. This matters for angle-blind labels, where
    tied orders can carry different concrete angles. Past 120 orders the
    code depends on the visit order, so two occurrences of one
    sub-circuit with many parallel gates can get different codes. *)

type t = {
  arity : int;  (** distinct wires *)
  size : int;  (** gate count *)
  gates : Paqoc_circuit.Gate.app list;  (** canonical body over local wires *)
  code : string;
}

type occurrence = {
  nodes : int list;  (** DAG node ids, sorted *)
  wire_map : int array;  (** local wire -> global qubit, canonical order *)
}

(** [of_nodes ?label dag nodes] canonicalises the sub-circuit at [nodes].
    [label] controls how gate kinds are rendered into the code (default
    {!Paqoc_circuit.Gate.mining_label}); pass an angle-blind labeler to
    mine structural patterns across rotation values. The returned gates
    always keep their concrete kinds — only the code is affected.
    @raise Invalid_argument on an empty set. *)
val of_nodes :
  ?label:(Paqoc_circuit.Gate.kind -> string) ->
  Paqoc_circuit.Dag.t ->
  int list ->
  t * occurrence

(** {1 Canonicalisation in parts}

    The steps of {!of_nodes}, for the miner, which labels every node once
    and builds the pattern only for a code it has not seen. *)

(** [canonical ~node_label dag nodes] is the canonical code of the
    sub-circuit at [nodes] (sorted, distinct) and the node order that
    renders it. [node_label v] labels node [v].
    @raise Invalid_argument on an empty set. *)
val canonical :
  node_label:(int -> string) ->
  Paqoc_circuit.Dag.t ->
  int array ->
  string * int array

(** [pattern_of_order dag ~code order] is the pattern whose body is
    [order]'s gates over wires relabelled by first appearance. *)
val pattern_of_order : Paqoc_circuit.Dag.t -> code:string -> int array -> t

(** [occurrence_of_order dag nodes order] is the occurrence at [nodes]
    whose wire map follows [order]. *)
val occurrence_of_order :
  Paqoc_circuit.Dag.t -> int list -> int array -> occurrence

(** [to_custom p ~name] packages the canonical body as a reusable custom
    gate. *)
val to_custom : t -> name:string -> Paqoc_circuit.Gate.custom

(** [interaction_weight p] is the summed CX-equivalent weight of the body
    (for coverage/value ranking). *)
val interaction_weight : t -> float

val pp : Format.formatter -> t -> unit

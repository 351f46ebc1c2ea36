(** The iterative customized-gates generator (Algorithm 1).

    Each iteration enumerates two-gate merge candidates on the current
    circuit, prunes them by criticality, ranks them by estimated
    critical-path reduction, and commits up to [top_k] span-disjoint
    merges. A commit generates the merged gate's pulse (through the shared
    generator — this is where QOC time is actually spent), rewrites the
    circuit, and is {e rolled back} if the measured whole-circuit latency
    regressed — enforcing the paper's invariant that every merge step
    monotonically decreases (never increases) circuit latency. The loop
    ends when no candidate scores non-negatively or nothing can be
    committed. *)

type config = {
  max_n : int;  (** qubit cap for customized gates (the paper's maxN) *)
  top_k : int;  (** merges committed per iteration (the paper's topK) *)
  max_iterations : int;  (** safety bound; the loop normally exits early *)
  prune_noncritical : bool;
      (** the paper's Case-III pruning; disable only to measure its value *)
}

val default_config : config

type stats = {
  iterations : int;
  merges_committed : int;
  merges_rolled_back : int;
  initial_latency : float;
  final_latency : float;
}

(** A search's state, for stepping it by hand: the allocation budget in
    test_search measures one warmed scoring and selection step. {!run}
    drives the same steps. *)
type search

(** [search ?config gen c] prices and schedules [c] for a search. *)
val search : ?config:config -> Paqoc_pulse.Generator.t -> Paqoc_circuit.Circuit.t -> search

(** [score_and_select s] scores every edge of the current circuit and
    returns the batch {!run} would attempt next — span-disjoint
    [(u, v)] position pairs, best first. It commits nothing; pair
    contents it prices stay memoised for the next call. *)
val score_and_select : search -> (int * int) list

(** [run ?config ?jobs gen c] returns the latency-optimised grouped
    circuit and the search statistics.

    This is the incremental search: criticality state is maintained by
    {!Criticality.Engine}, which splices each trial merge into its
    stable-id DAG instead of re-analysing the circuit, candidate content
    (merged keys and latency estimates) is memoised in flat per-edge
    slots, scores are computed over a flat snapshot of the engine,
    validity checks run allocation-free, and with [jobs > 1] independent candidates are
    explored on a {!Paqoc_pulse.Pool} when a single candidate is worth
    dispatching — i.e. on a real QOC backend; analytic pricing stays
    inline, so the pool spawns no workers and an all-cache-hit compile
    at any [jobs] runs at [jobs = 1] speed (commit order stays
    deterministic — results are identical at any [jobs]). The decision
    sequence, the generated pulse keys and order, the returned circuit
    and the statistics are all exactly those of the original
    full-reanalysis loop (one {!Criticality.analyze} per iteration and
    per attempted contraction), which is kept as a test-only oracle in
    [test/oracle]; the differential battery in test_search holds the two
    bit-identical. *)
val run :
  ?config:config ->
  ?jobs:int ->
  Paqoc_pulse.Generator.t ->
  Paqoc_circuit.Circuit.t ->
  Paqoc_circuit.Circuit.t * stats

(** Candidate scoring (Section V-A's Case I / Case II algebra).

    Each candidate is scored by the estimated drop in whole-circuit latency
    if the pair merged, {e without generating a pulse}: Observations 1 and
    2 supply the estimate of the merged latency (the analytic model's free
    estimate for same-size merges, the corpus average for size-growing
    merges), and the paper's path formulas supply the local critical-path
    delta. Pulse generation happens only for the top-k candidates the
    merger actually commits. [Merger.run] ranks candidates by this score,
    descending, ties broken by pair [(u, v)] ascending. *)

(** The bare Section V-A benefit formula: the one copy of the scoring
    arithmetic, used by the incremental search ([Merger.run]) on its
    memoized candidates and by the test-only reference scorer, so the
    two are bit-identical by construction. *)
val score_value :
  case:[ `I | `II | `III ] ->
  u_critical:bool ->
  l_u:float ->
  l_v:float ->
  cp_v:float ->
  alt_after_u:float ->
  est:float ->
  float

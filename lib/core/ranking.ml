(* The Section V-A benefit formula, shared by the incremental search's
   scorer ({!Merger}) and the reference scorer of the test
   oracle: both paths must produce bit-identical scores, so there is
   exactly one copy of the arithmetic. *)
let score_value ~case ~u_critical ~l_u ~l_v ~cp_v ~alt_after_u ~est =
  match case with
  | `I ->
    (* both on the critical path:
       orig = L(u) + L(v) + CP(v); new = L(uv) + max(CP(v), alt) *)
    l_u +. l_v +. cp_v -. (est +. Float.max cp_v alt_after_u)
  | `II ->
    if u_critical then
      (* u critical, v the off-path successor C: the critical
         continuation b is u's dominant other successor, so
         orig = L(u) + (L(b)+CP(b)); new = L(uv) + max(L(b)+CP(b), CP(v))
         — beneficial iff L(uv) < L(u) while CP(v) stays dominated,
         exactly the paper's comparison. *)
      l_u +. alt_after_u -. (est +. Float.max alt_after_u cp_v)
    else (* v critical, u the off-path predecessor *)
      l_v -. est
  | `III ->
    (* neither gate is critical: merging cannot shorten the circuit
       (Section V-A prunes these); scored only in the pruning ablation,
       by the local Observation-1 gain *)
    l_u +. l_v -. est

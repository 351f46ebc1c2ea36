module Circuit = Paqoc_circuit.Circuit
module Dag = Paqoc_circuit.Dag
module Pricing = Paqoc_pulse.Pricing
module Generator = Paqoc_pulse.Generator

type t = { circuit : Circuit.t; dag : Dag.t; sched : Dag.schedule }

let analyze gen c =
  Paqoc_obs.Obs.with_span "criticality.analyze" @@ fun () ->
  let dag = Dag.of_circuit c in
  (* schedule with database-or-estimate latencies: per Algorithm 1, the
     search itself never triggers pulse generation — only committed merges
     do (Merger) and the final schedule does (Paqoc.compile) *)
  let sched =
    Dag.schedule dag ~latency:(Pricing.episode_latency_estimate gen)
  in
  { circuit = c; dag; sched }

let is_critical t v = t.sched.Dag.critical.(v)
let total t = t.sched.Dag.total

let case_of t u v =
  match (is_critical t u, is_critical t v) with
  | true, true -> `I
  | true, false | false, true -> `II
  | false, false -> `III

let latency t v = t.sched.Dag.latency.(v)
let cp_after t v = t.sched.Dag.cp_after.(v)

(* ------------------------------------------------------------------ *)
(* Incremental engine                                                  *)
(* ------------------------------------------------------------------ *)

module Rewrite = Paqoc_circuit.Rewrite
module Gate = Paqoc_circuit.Gate
module Obs = Paqoc_obs.Obs

(* The engine maintains the same four per-node quantities as {!analyze}
   — episode latency, earliest start, CP-after, critical membership —
   under merge edits, without re-running the full analysis per edit.

   Exactness, not approximation: every value the engine exposes is
   bitwise equal to what a from-scratch [analyze] of the same circuit
   against the same generator state would produce. This holds because
   (a) episode latencies come from the generator's write-through
   priced-latency memo, i.e. they are exactly the peek-or-estimate
   values [analyze] schedules with; (b) the est / cp_after recurrences
   are pure max-plus folds, whose results do not depend on evaluation
   order; and (c) the dirty-region rule below only ever {e skips}
   recomputing a node when all its inputs (its pred/succ set through
   the edit's renumbering, their values, and its own latency) are
   unchanged — in which case recomputation would reproduce the stored
   value verbatim. The differential battery in test_search pins this.

   Dirty-region rule. A merge edit contracts a few nodes and renumbers
   the rest ({!Rewrite.contract_mapped} reports the renumbering).
   Scanning new ids in topological order, a node's est must be
   recomputed iff it is the merged node, its mapped predecessor {e set}
   changed, or some predecessor's est or latency changed; the
   recomputed value is flagged as changed only when it differs from the
   carried-over value, which is what stops the propagation wave a few
   levels past the edit site. cp_after mirrors this backwards over
   successor sets. Totals and criticality flags are cheap O(n) scans.

   Double buffering: [stage] computes the edit's consequences into a
   shadow buffer and returns the trial total; the caller either
   [commit]s (swap buffers, O(1)) or discards (do nothing). All
   buffers are preallocated at [create] and reused for every edit, so
   steady-state staging allocates only the contracted circuit and its
   DAG — no per-node float boxing, no worklists. The contraction reuses
   the committed DAG [dagv] ([commit] keeps it equal to
   [Dag.of_circuit circuit]) instead of rebuilding it per stage. *)
module Engine = struct
  type e = {
    gen : Generator.t;
    mutable next_uid : int;
    (* committed state *)
    mutable n : int;
    mutable circuit : Circuit.t;
    mutable dagv : Dag.t;  (** always [Dag.of_circuit circuit] *)
    mutable est : float array;
    mutable lat : float array;
    mutable cp : float array;
    mutable crit : bool array;
    mutable keys : string array;
    mutable uid : int array;
    mutable total : float;
    mutable epoch : int;  (** generator price epoch of [lat] *)
    (* shadow (staged) state *)
    mutable s_valid : bool;
    mutable s_n : int;
    mutable s_circuit : Circuit.t;
    mutable s_dag : Dag.t;
    mutable s_est : float array;
    mutable s_lat : float array;
    mutable s_cp : float array;
    mutable s_crit : bool array;
    mutable s_keys : string array;
    mutable s_uid : int array;
    mutable s_total : float;
    mutable s_epoch : int;
    mutable s_old : int array;  (** old_of_new from the contraction *)
    (* scratch, reused by every stage/refresh *)
    mutable new_of_old : int array;
    mutable est_chg : bool array;
    mutable lat_chg : bool array;
    mutable cp_chg : bool array;
    mutable pred_chg : bool array;
    mutable succ_chg : bool array;
    mutable scr_a : int array;
    mutable scr_b : int array;
  }

  let price_of_app gen (g : Gate.app) =
    let grp, _ = Generator.group_of_apps [ g ] in
    (Generator.key grp, Generator.priced_latency gen grp)

  (* the exact value [analyze]'s scheduler would use for this key *)
  let price_of_key e j_gate k =
    match Generator.priced_latency_of_key e.gen k with
    | Some l -> l
    | None -> snd (price_of_app e.gen j_gate)

  let create gen c =
    Obs.with_span "criticality.engine.create" @@ fun () ->
    let dagv = Dag.of_circuit c in
    let n = Dag.n_nodes dagv in
    let cap = max n 1 in
    let e =
      { gen;
        next_uid = n;
        n;
        circuit = c;
        dagv;
        est = Array.make cap 0.0;
        lat = Array.make cap 0.0;
        cp = Array.make cap 0.0;
        crit = Array.make cap false;
        keys = Array.make cap "";
        uid = Array.make cap 0;
        total = 0.0;
        epoch = Generator.price_epoch gen;
        s_valid = false;
        s_n = 0;
        s_circuit = c;
        s_dag = dagv;
        s_est = Array.make cap 0.0;
        s_lat = Array.make cap 0.0;
        s_cp = Array.make cap 0.0;
        s_crit = Array.make cap false;
        s_keys = Array.make cap "";
        s_uid = Array.make cap 0;
        s_total = 0.0;
        s_epoch = 0;
        s_old = Array.make cap 0;
        new_of_old = Array.make cap (-1);
        est_chg = Array.make cap false;
        lat_chg = Array.make cap false;
        cp_chg = Array.make cap false;
        pred_chg = Array.make cap false;
        succ_chg = Array.make cap false;
        scr_a = Array.make cap 0;
        scr_b = Array.make cap 0
      }
    in
    for v = 0 to n - 1 do
      let k, l = price_of_app gen (Dag.gate dagv v) in
      e.keys.(v) <- k;
      e.lat.(v) <- l;
      e.uid.(v) <- v
    done;
    (* full passes, same recurrences as Dag.schedule *)
    for v = 0 to n - 1 do
      e.est.(v) <- 0.0;
      List.iter
        (fun p ->
          let f = e.est.(p) +. e.lat.(p) in
          if f > e.est.(v) then e.est.(v) <- f)
        (Dag.preds dagv v)
    done;
    for v = n - 1 downto 0 do
      e.cp.(v) <- 0.0;
      List.iter
        (fun s ->
          let f = e.lat.(s) +. e.cp.(s) in
          if f > e.cp.(v) then e.cp.(v) <- f)
        (Dag.succs dagv v)
    done;
    let total = ref 0.0 in
    for v = 0 to n - 1 do
      let f = e.est.(v) +. e.lat.(v) in
      if f > !total then total := f
    done;
    e.total <- !total;
    let eps = 1e-9 *. (1.0 +. !total) in
    for v = 0 to n - 1 do
      e.crit.(v) <- e.est.(v) +. e.lat.(v) +. e.cp.(v) >= !total -. eps
    done;
    e

  (* accessors over the committed state *)
  let circuit e = e.circuit
  let dag e = e.dagv
  let n_nodes e = e.n
  let total e = e.total
  let latency e v = e.lat.(v)
  let est e v = e.est.(v)
  let cp_after e v = e.cp.(v)
  let is_critical e v = e.crit.(v)
  let node_uid e v = e.uid.(v)

  let case_of e u v =
    match (e.crit.(u), e.crit.(v)) with
    | true, true -> `I
    | true, false | false, true -> `II
    | false, false -> `III

  (* [refresh e] re-resolves episode latencies after the pulse database
     changed under the unchanged circuit (a rolled-back attempt still
     generates pulses), propagating only from the nodes whose price
     actually moved. No-op when the price epoch is unchanged. *)
  let refresh e =
    let ep = Generator.price_epoch e.gen in
    if ep <> e.epoch then begin
      Obs.with_span "criticality.engine.refresh" @@ fun () ->
      let any = ref false in
      for v = 0 to e.n - 1 do
        let l = price_of_key e (Dag.gate e.dagv v) e.keys.(v) in
        let chg = l <> e.lat.(v) in
        e.lat_chg.(v) <- chg;
        if chg then begin
          e.lat.(v) <- l;
          any := true
        end
      done;
      if !any then begin
        (* in-place dirty passes: ids are topological, so recomputed
           nodes always read final values from their preds/succs *)
        for v = 0 to e.n - 1 do
          let dirty =
            List.exists
              (fun p -> e.lat_chg.(p) || e.est_chg.(p))
              (Dag.preds e.dagv v)
          in
          if dirty then begin
            let x = ref 0.0 in
            List.iter
              (fun p ->
                let f = e.est.(p) +. e.lat.(p) in
                if f > !x then x := f)
              (Dag.preds e.dagv v);
            e.est_chg.(v) <- !x <> e.est.(v);
            if e.est_chg.(v) then e.est.(v) <- !x
          end
          else e.est_chg.(v) <- false
        done;
        for v = e.n - 1 downto 0 do
          let dirty =
            List.exists
              (fun s -> e.lat_chg.(s) || e.cp_chg.(s))
              (Dag.succs e.dagv v)
          in
          if dirty then begin
            let x = ref 0.0 in
            List.iter
              (fun s ->
                let f = e.lat.(s) +. e.cp.(s) in
                if f > !x then x := f)
              (Dag.succs e.dagv v);
            e.cp_chg.(v) <- !x <> e.cp.(v);
            if e.cp_chg.(v) then e.cp.(v) <- !x
          end
          else e.cp_chg.(v) <- false
        done;
        let total = ref 0.0 in
        for v = 0 to e.n - 1 do
          let f = e.est.(v) +. e.lat.(v) in
          if f > !total then total := f
        done;
        e.total <- !total;
        let eps = 1e-9 *. (1.0 +. !total) in
        for v = 0 to e.n - 1 do
          e.crit.(v) <- e.est.(v) +. e.lat.(v) +. e.cp.(v) >= !total -. eps
        done
      end;
      e.epoch <- ep
    end

  (* sorted-set comparison through a scratch buffer: copy, insertion
     sort (degrees are tiny), dedup in place *)
  let fill_sorted dst lst f =
    let c = ref 0 in
    List.iter
      (fun x ->
        dst.(!c) <- f x;
        incr c)
      lst;
    for i = 1 to !c - 1 do
      let x = dst.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && dst.(!j) > x do
        dst.(!j + 1) <- dst.(!j);
        decr j
      done;
      dst.(!j + 1) <- x
    done;
    if !c > 1 then begin
      let w = ref 1 in
      for i = 1 to !c - 1 do
        if dst.(i) <> dst.(!w - 1) then begin
          dst.(!w) <- dst.(i);
          incr w
        end
      done;
      c := !w
    end;
    !c

  let stage e groups =
    Obs.with_span "criticality.engine.stage" @@ fun () ->
    let newc, old_of_new = Rewrite.contract_mapped e.dagv groups in
    let sd = Dag.of_circuit newc in
    let sn = Dag.n_nodes sd in
    let ep = Generator.price_epoch e.gen in
    let repriced = ep <> e.epoch in
    e.s_old <- old_of_new;
    let groups_arr = Array.of_list groups in
    for v = 0 to e.n - 1 do
      e.new_of_old.(v) <- -1
    done;
    for j = 0 to sn - 1 do
      let ov = old_of_new.(j) in
      if ov >= 0 then e.new_of_old.(ov) <- j
      else
        let nodes, _ = groups_arr.(-ov - 1) in
        List.iter (fun m -> e.new_of_old.(m) <- j) nodes
    done;
    (* latencies, keys, uids; flag price movements *)
    for j = 0 to sn - 1 do
      let ov = old_of_new.(j) in
      if ov >= 0 then begin
        e.s_keys.(j) <- e.keys.(ov);
        e.s_uid.(j) <- e.uid.(ov);
        let l =
          if repriced then price_of_key e (Dag.gate sd j) e.s_keys.(j)
          else e.lat.(ov)
        in
        e.s_lat.(j) <- l;
        e.lat_chg.(j) <- l <> e.lat.(ov)
      end
      else begin
        let k, l = price_of_app e.gen (Dag.gate sd j) in
        e.s_keys.(j) <- k;
        e.s_uid.(j) <- e.next_uid;
        e.next_uid <- e.next_uid + 1;
        e.s_lat.(j) <- l;
        e.lat_chg.(j) <- true
      end
    done;
    (* structural dirt: did the mapped pred/succ set survive the edit? *)
    for j = 0 to sn - 1 do
      let ov = old_of_new.(j) in
      if ov < 0 then begin
        e.pred_chg.(j) <- true;
        e.succ_chg.(j) <- true
      end
      else begin
        let same old_lst new_lst =
          let ca = fill_sorted e.scr_a old_lst (fun p -> e.new_of_old.(p)) in
          let cb = fill_sorted e.scr_b new_lst Fun.id in
          ca = cb
          &&
          let ok = ref true in
          for i = 0 to ca - 1 do
            if e.scr_a.(i) <> e.scr_b.(i) then ok := false
          done;
          !ok
        in
        e.pred_chg.(j) <- not (same (Dag.preds e.dagv ov) (Dag.preds sd j));
        e.succ_chg.(j) <- not (same (Dag.succs e.dagv ov) (Dag.succs sd j))
      end
    done;
    (* dirty est wave over the staged buffer *)
    for j = 0 to sn - 1 do
      let ov = old_of_new.(j) in
      let dirty =
        ov < 0 || e.pred_chg.(j)
        || List.exists
             (fun p -> e.est_chg.(p) || e.lat_chg.(p))
             (Dag.preds sd j)
      in
      if dirty then begin
        let x = ref 0.0 in
        List.iter
          (fun p ->
            let f = e.s_est.(p) +. e.s_lat.(p) in
            if f > !x then x := f)
          (Dag.preds sd j);
        e.s_est.(j) <- !x;
        e.est_chg.(j) <- ov < 0 || !x <> e.est.(ov)
      end
      else begin
        e.s_est.(j) <- e.est.(ov);
        e.est_chg.(j) <- false
      end
    done;
    let total = ref 0.0 in
    for j = 0 to sn - 1 do
      let f = e.s_est.(j) +. e.s_lat.(j) in
      if f > !total then total := f
    done;
    e.s_total <- !total;
    e.s_n <- sn;
    e.s_circuit <- newc;
    e.s_dag <- sd;
    e.s_epoch <- ep;
    e.s_valid <- true;
    !total

  let staged_circuit e =
    if not e.s_valid then
      invalid_arg "Criticality.Engine.staged_circuit: nothing staged";
    e.s_circuit

  let discard e = e.s_valid <- false

  let commit e =
    if not e.s_valid then
      invalid_arg "Criticality.Engine.commit: nothing staged";
    Obs.with_span "criticality.engine.commit" @@ fun () ->
    let sd = e.s_dag and sn = e.s_n in
    (* dirty cp_after wave, backwards *)
    for j = sn - 1 downto 0 do
      let ov = e.s_old.(j) in
      let dirty =
        ov < 0 || e.succ_chg.(j)
        || List.exists
             (fun s -> e.cp_chg.(s) || e.lat_chg.(s))
             (Dag.succs sd j)
      in
      if dirty then begin
        let x = ref 0.0 in
        List.iter
          (fun s ->
            let f = e.s_lat.(s) +. e.s_cp.(s) in
            if f > !x then x := f)
          (Dag.succs sd j);
        e.s_cp.(j) <- !x;
        e.cp_chg.(j) <- ov < 0 || !x <> e.cp.(ov)
      end
      else begin
        e.s_cp.(j) <- e.cp.(ov);
        e.cp_chg.(j) <- false
      end
    done;
    let eps = 1e-9 *. (1.0 +. e.s_total) in
    for j = 0 to sn - 1 do
      e.s_crit.(j) <-
        e.s_est.(j) +. e.s_lat.(j) +. e.s_cp.(j) >= e.s_total -. eps
    done;
    (* adopt the shadow state: O(1) buffer swaps *)
    let fa = e.est in
    e.est <- e.s_est;
    e.s_est <- fa;
    let fb = e.lat in
    e.lat <- e.s_lat;
    e.s_lat <- fb;
    let fc = e.cp in
    e.cp <- e.s_cp;
    e.s_cp <- fc;
    let bb = e.crit in
    e.crit <- e.s_crit;
    e.s_crit <- bb;
    let ks = e.keys in
    e.keys <- e.s_keys;
    e.s_keys <- ks;
    let us = e.uid in
    e.uid <- e.s_uid;
    e.s_uid <- us;
    e.n <- e.s_n;
    e.circuit <- e.s_circuit;
    e.dagv <- e.s_dag;
    e.total <- e.s_total;
    e.epoch <- e.s_epoch;
    e.s_valid <- false
end

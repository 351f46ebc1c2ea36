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

module Gate = Paqoc_circuit.Gate
module Obs = Paqoc_obs.Obs

(* The engine maintains the same four per-node quantities as {!analyze}
   — episode latency, earliest start, CP-after, critical membership —
   under merge edits, doing work in proportion to the edit rather than
   to the circuit.

   Exactness, not approximation: every value the engine exposes is
   bitwise equal to what a from-scratch [analyze] of the same circuit
   against the same generator state would produce. This holds because
   (a) episode latencies come from the generator's write-through
   priced-latency memo, i.e. they are exactly the peek-or-estimate
   values [analyze] schedules with; (b) the est / cp_after recurrences
   are pure max-plus folds, whose results do not depend on evaluation
   order; and (c) a node is only ever left unrecomputed when all its
   inputs (its neighbour set, their values, its own latency) are
   unchanged — recomputing it would reproduce the stored value
   verbatim. The differential battery in test_search pins this.

   Stable identities. Every node has a uid for life; all per-node state
   (gate, interned price key, latency, est, cp) lives in uid-indexed
   arrays, and [order]/[pos] map positions of the topological order to
   uids and back. The dependence DAG is kept as per-qubit wires: each
   node owns one wire slot per qubit it touches, linked to the previous
   and next slot on the same qubit. Two gates are adjacent exactly when
   they are neighbours on some wire, so this is [Dag.of_circuit] of any
   linearisation of the order.

   The window splice. Contracting a convex group S (ids lo = min S,
   hi = max S) with {!Rewrite.contract_mapped}'s stable min-id Kahn
   leaves every node below lo in place, and every node above hi in
   order, shifted down by |S| - 1: the Kahn front always holds a ready
   node of the window (its outside predecessors all sit below lo), and
   any such node has a smaller min-id than everything above hi. So
   [stage] runs the same min-id Kahn over the window only, splices the
   merged node into the wires (S is contiguous on each of its wires, or
   it would not be convex) and blits the position maps. Windows of the
   groups of one batch are disjoint, so each is ordered on its own.

   Dirty waves. Only the merged node's est is new; a node's est is
   recomputed when a predecessor's est or latency moved, in position
   order from the edit site, and a recomputed value that equals the old
   one stops the wave. [commit] runs the mirror-image cp wave backwards
   from the merged node. The total is one flat max over the positions;
   critical flags are never stored — [is_critical] evaluates the
   schedule's own test from est, latency, cp and the total.

   Undo log. [stage] edits the committed state in place and logs every
   overwritten est value, wire link and the shifted stretch of the
   order; [discard] replays the log backwards, [commit] drops it. Uids
   and wire slots a discarded trial took are handed out again, so the
   uid-indexed arrays grow only with committed merges. *)
module Engine = struct
  type e = {
    gen : Generator.t;
    nq : int;
    (* nodes, by uid *)
    mutable gate : Gate.app array;
    mutable kid : int array;  (** interned price key *)
    mutable lat : float array;
    mutable est : float array;
    mutable cp : float array;
    mutable pos : int array;  (** position of a live uid *)
    mutable base : int array;  (** the node's first wire slot *)
    mutable arity : int array;  (** its number of wire slots *)
    mutable est_dirty : bool array;
    mutable cp_dirty : bool array;
    mutable member : int array;  (** group stamp, see [stage] *)
    mutable mark : int array;  (** reachability stamp *)
    (* wire slots: slot [base.(x) + i] is node [x]'s [i]-th qubit *)
    mutable s_node : int array;
    mutable s_wire : int array;
    mutable s_prev : int array;  (** previous slot on the wire, or -1 *)
    mutable s_next : int array;  (** next slot on the wire, or -1 *)
    (* the topological order *)
    order : int array;  (** uid at each position *)
    mutable n : int;
    mutable next_uid : int;
    mutable next_slot : int;
    mutable total : float;
    mutable epoch : int;  (** generator price epoch of [lat] *)
    (* interned price keys *)
    kids : (string, int) Hashtbl.t;
    mutable kid_key : string array;
    mutable kid_lat : float array;
    (* the staged edit: undo log *)
    mutable staged : bool;
    mutable u_n : int;
    mutable u_next_uid : int;
    mutable u_next_slot : int;
    mutable u_total : float;
    mutable u_lo : int;
    saved : int array;  (** [order] from [u_lo] up, before the edit *)
    mutable u_links : int array;  (** (slot * 2 + 0 next | 1 prev, old) *)
    mutable n_links : int;
    mutable u_est_uid : int array;
    mutable u_est_old : float array;
    mutable n_est : int;
    mutable fresh : int array;  (** the merged nodes' uids *)
    mutable n_fresh : int;
    (* scratch sized to positions (n only shrinks) *)
    win_indeg : int array;
    win_stamp : int array;
    heap : int array;
    mutable hsize : int;
    win_out : int array;
    gm : int array;  (** the members of the staged groups, by uid *)
    wmark : int array;  (** per-qubit stamp *)
    stack : int array;
    mutable tag : int;
    mutable est_pending : int;  (** est-dirty nodes not yet recomputed *)
    mutable cp_pending : int;
  }

  let grow a need fill =
    let len = Array.length a in
    if len >= need then a
    else begin
      let b = Array.make (max need (2 * len)) fill in
      Array.blit a 0 b 0 len;
      b
    end

  let fit_uid e need =
    if Array.length e.lat < need then begin
      e.gate <- grow e.gate need Gate.(app1 I 0);
      e.kid <- grow e.kid need 0;
      e.lat <- grow e.lat need 0.0;
      e.est <- grow e.est need 0.0;
      e.cp <- grow e.cp need 0.0;
      e.pos <- grow e.pos need 0;
      e.base <- grow e.base need 0;
      e.arity <- grow e.arity need 0;
      e.est_dirty <- grow e.est_dirty need false;
      e.cp_dirty <- grow e.cp_dirty need false;
      e.member <- grow e.member need (-1);
      e.mark <- grow e.mark need 0
    end

  let fit_slot e need =
    if Array.length e.s_node < need then begin
      e.s_node <- grow e.s_node need 0;
      e.s_wire <- grow e.s_wire need 0;
      e.s_prev <- grow e.s_prev need (-1);
      e.s_next <- grow e.s_next need (-1)
    end

  (* distinct qubits, in first-appearance order *)
  let wires_of (g : Gate.app) =
    List.rev
      (List.fold_left
         (fun acc q -> if List.mem q acc then acc else q :: acc)
         [] g.Gate.qubits)

  let price_of_app gen (g : Gate.app) =
    let grp, _ = Generator.group_of_apps [ g ] in
    (Generator.key grp, Generator.priced_latency gen grp)

  let intern e k l =
    match Hashtbl.find_opt e.kids k with
    | Some kd -> kd
    | None ->
      let kd = Hashtbl.length e.kids in
      Hashtbl.add e.kids k kd;
      e.kid_key <- grow e.kid_key (kd + 1) "";
      e.kid_lat <- grow e.kid_lat (kd + 1) 0.0;
      e.kid_key.(kd) <- k;
      e.kid_lat.(kd) <- l;
      kd

  (* a fresh uid for [g], priced, with unlinked wire slots *)
  let add_node e (g : Gate.app) =
    let x = e.next_uid in
    e.next_uid <- x + 1;
    fit_uid e (x + 1);
    let wires = wires_of g in
    let b = e.next_slot in
    let a = List.length wires in
    e.next_slot <- b + a;
    fit_slot e (b + a);
    List.iteri
      (fun i q ->
        e.s_node.(b + i) <- x;
        e.s_wire.(b + i) <- q;
        e.s_prev.(b + i) <- -1;
        e.s_next.(b + i) <- -1)
      wires;
    e.gate.(x) <- g;
    e.base.(x) <- b;
    e.arity.(x) <- a;
    e.member.(x) <- -1;
    let k, l = price_of_app e.gen g in
    e.kid.(x) <- intern e k l;
    e.lat.(x) <- l;
    x

  (* the recurrences of Dag.schedule_latencies, over the wires *)
  let est_of e x =
    let b = e.base.(x) in
    let acc = ref 0.0 in
    for i = 0 to e.arity.(x) - 1 do
      let ps = e.s_prev.(b + i) in
      if ps >= 0 then begin
        let p = e.s_node.(ps) in
        let f = e.est.(p) +. e.lat.(p) in
        if f > !acc then acc := f
      end
    done;
    !acc

  let cp_of e x =
    let b = e.base.(x) in
    let acc = ref 0.0 in
    for i = 0 to e.arity.(x) - 1 do
      let ns = e.s_next.(b + i) in
      if ns >= 0 then begin
        let s = e.s_node.(ns) in
        let f = e.lat.(s) +. e.cp.(s) in
        if f > !acc then acc := f
      end
    done;
    !acc

  let total_of e =
    let acc = ref 0.0 in
    for p = 0 to e.n - 1 do
      let x = e.order.(p) in
      let f = e.est.(x) +. e.lat.(x) in
      if f > !acc then acc := f
    done;
    !acc

  let mark_est e x =
    if not e.est_dirty.(x) then begin
      e.est_dirty.(x) <- true;
      e.est_pending <- e.est_pending + 1
    end

  let mark_cp e x =
    if not e.cp_dirty.(x) then begin
      e.cp_dirty.(x) <- true;
      e.cp_pending <- e.cp_pending + 1
    end

  let mark_succs e x =
    let b = e.base.(x) in
    for i = 0 to e.arity.(x) - 1 do
      let ns = e.s_next.(b + i) in
      if ns >= 0 then mark_est e e.s_node.(ns)
    done

  let mark_preds e x =
    let b = e.base.(x) in
    for i = 0 to e.arity.(x) - 1 do
      let ps = e.s_prev.(b + i) in
      if ps >= 0 then mark_cp e e.s_node.(ps)
    done

  (* Recompute every est-dirty node in position order from [from]
     (no dirty node sits below it), marking successors whenever a value
     moves; with [log], overwritten values go to the undo log. *)
  let est_wave e ~log from =
    let p = ref from in
    while e.est_pending > 0 do
      let x = e.order.(!p) in
      if e.est_dirty.(x) then begin
        e.est_dirty.(x) <- false;
        e.est_pending <- e.est_pending - 1;
        let v = est_of e x in
        if v <> e.est.(x) then begin
          if log then begin
            let i = e.n_est in
            e.u_est_uid <- grow e.u_est_uid (i + 1) 0;
            e.u_est_old <- grow e.u_est_old (i + 1) 0.0;
            e.u_est_uid.(i) <- x;
            e.u_est_old.(i) <- e.est.(x);
            e.n_est <- i + 1
          end;
          e.est.(x) <- v;
          mark_succs e x
        end
      end;
      incr p
    done

  (* the mirror image: cp-dirty nodes from [from] downwards *)
  let cp_wave e from =
    let p = ref from in
    while e.cp_pending > 0 do
      let x = e.order.(!p) in
      if e.cp_dirty.(x) then begin
        e.cp_dirty.(x) <- false;
        e.cp_pending <- e.cp_pending - 1;
        let v = cp_of e x in
        if v <> e.cp.(x) then begin
          e.cp.(x) <- v;
          mark_preds e x
        end
      end;
      decr p
    done

  let create gen c =
    Obs.with_span "criticality.engine.create" @@ fun () ->
    let gates = Array.of_list c.Circuit.gates in
    let n = Array.length gates in
    let cap = max n 1 in
    let e =
      { gen;
        nq = c.Circuit.n_qubits;
        gate = [||];
        kid = [||];
        lat = [||];
        est = [||];
        cp = [||];
        pos = [||];
        base = [||];
        arity = [||];
        est_dirty = [||];
        cp_dirty = [||];
        member = [||];
        mark = [||];
        s_node = [||];
        s_wire = [||];
        s_prev = [||];
        s_next = [||];
        order = Array.make cap 0;
        n;
        next_uid = 0;
        next_slot = 0;
        total = 0.0;
        epoch = Generator.price_epoch gen;
        kids = Hashtbl.create 256;
        kid_key = [||];
        kid_lat = [||];
        staged = false;
        u_n = 0;
        u_next_uid = 0;
        u_next_slot = 0;
        u_total = 0.0;
        u_lo = 0;
        saved = Array.make cap 0;
        u_links = [||];
        n_links = 0;
        u_est_uid = [||];
        u_est_old = [||];
        n_est = 0;
        fresh = [||];
        n_fresh = 0;
        win_indeg = Array.make cap 0;
        win_stamp = Array.make cap 0;
        heap = Array.make cap 0;
        hsize = 0;
        win_out = Array.make cap 0;
        gm = Array.make cap 0;
        wmark = Array.make (max 1 c.Circuit.n_qubits) 0;
        stack = Array.make cap 0;
        tag = 0;
        est_pending = 0;
        cp_pending = 0
      }
    in
    fit_uid e cap;
    let last = Array.make c.Circuit.n_qubits (-1) in
    Array.iteri
      (fun p g ->
        let x = add_node e g in
        e.order.(p) <- x;
        e.pos.(x) <- p;
        let b = e.base.(x) in
        for i = 0 to e.arity.(x) - 1 do
          let q = e.s_wire.(b + i) in
          let ps = last.(q) in
          e.s_prev.(b + i) <- ps;
          if ps >= 0 then e.s_next.(ps) <- b + i;
          last.(q) <- b + i
        done)
      gates;
    for p = 0 to n - 1 do
      let x = e.order.(p) in
      e.est.(x) <- est_of e x
    done;
    for p = n - 1 downto 0 do
      let x = e.order.(p) in
      e.cp.(x) <- cp_of e x
    done;
    e.total <- total_of e;
    e

  (* accessors over the committed state, by position *)
  let n_nodes e = e.n
  let total e = e.total
  let latency e v = e.lat.(e.order.(v))
  let est e v = e.est.(e.order.(v))
  let cp_after e v = e.cp.(e.order.(v))
  let gate e v = e.gate.(e.order.(v))

  (* the test [Dag.schedule_latencies] stores as [critical] *)
  let is_critical e v =
    let x = e.order.(v) in
    e.est.(x) +. e.lat.(x) +. e.cp.(x) >= e.total -. (1e-9 *. (1.0 +. e.total))

  let case_of e u v =
    match (is_critical e u, is_critical e v) with
    | true, true -> `I
    | true, false | false, true -> `II
    | false, false -> `III

  (* DFS over successors below the target (positions are topological,
     so nothing at or past it can lead back to it), skipping the direct
     edge: a stamp per uid and a position-sized stack, no allocation *)
  let has_indirect_path e u v =
    if u = v then false
    else begin
      let a = if u < v then u else v in
      let b = if u < v then v else u in
      let target = e.order.(b) in
      e.tag <- e.tag + 1;
      let g = e.tag in
      let top = ref 0 in
      let x = e.order.(a) in
      let bx = e.base.(x) in
      for i = 0 to e.arity.(x) - 1 do
        let ns = e.s_next.(bx + i) in
        if ns >= 0 then begin
          let y = e.s_node.(ns) in
          if y <> target && e.pos.(y) < b && e.mark.(y) <> g then begin
            e.mark.(y) <- g;
            e.stack.(!top) <- y;
            incr top
          end
        end
      done;
      let found = ref false in
      while (not !found) && !top > 0 do
        decr top;
        let y = e.stack.(!top) in
        let by = e.base.(y) in
        for i = 0 to e.arity.(y) - 1 do
          let ns = e.s_next.(by + i) in
          if ns >= 0 then begin
            let z = e.s_node.(ns) in
            if z = target then found := true
            else if e.pos.(z) < b && e.mark.(z) <> g then begin
              e.mark.(z) <- g;
              e.stack.(!top) <- z;
              incr top
            end
          end
        done
      done;
      !found
    end

  let materialise e =
    Circuit.make ~n_qubits:e.nq
      (List.init e.n (fun p -> e.gate.(e.order.(p))))

  let circuit e =
    if e.staged then invalid_arg "Criticality.Engine.circuit: an edit is staged";
    materialise e

  let dag e = Dag.of_circuit (circuit e)

  let staged_circuit e =
    if not e.staged then
      invalid_arg "Criticality.Engine.staged_circuit: nothing staged";
    materialise e

  let undo e =
    for i = e.n_est - 1 downto 0 do
      e.est.(e.u_est_uid.(i)) <- e.u_est_old.(i)
    done;
    for i = e.n_links - 1 downto 0 do
      let code = e.u_links.(2 * i) and old = e.u_links.((2 * i) + 1) in
      if code land 1 = 0 then e.s_next.(code lsr 1) <- old
      else e.s_prev.(code lsr 1) <- old
    done;
    Array.blit e.saved 0 e.order e.u_lo (e.u_n - e.u_lo);
    for p = e.u_lo to e.u_n - 1 do
      e.pos.(e.order.(p)) <- p
    done;
    e.n <- e.u_n;
    e.next_uid <- e.u_next_uid;
    e.next_slot <- e.u_next_slot;
    e.total <- e.u_total;
    e.n_est <- 0;
    e.n_links <- 0;
    e.n_fresh <- 0;
    e.staged <- false

  let discard e = if e.staged then undo e

  (* [refresh e] re-resolves episode latencies after the pulse database
     changed under the unchanged circuit (a rolled-back attempt still
     generates pulses). Every interned key is re-read; only nodes whose
     key's price moved seed the waves. No-op when the epoch is
     unchanged. *)
  let refresh e =
    discard e;
    let ep = Generator.price_epoch e.gen in
    if ep <> e.epoch then begin
      Obs.with_span "criticality.engine.refresh" @@ fun () ->
      let moved = ref false in
      for kd = 0 to Hashtbl.length e.kids - 1 do
        (* every interned key was priced through the memo, which keeps
           its entries for the generator's life *)
        let l =
          Option.get (Generator.priced_latency_of_key e.gen e.kid_key.(kd))
        in
        if l <> e.kid_lat.(kd) then begin
          e.kid_lat.(kd) <- l;
          moved := true
        end
      done;
      if !moved then begin
        let lo = ref e.n and hi = ref (-1) in
        for p = 0 to e.n - 1 do
          let x = e.order.(p) in
          let l = e.kid_lat.(e.kid.(x)) in
          if l <> e.lat.(x) then begin
            e.lat.(x) <- l;
            if !lo = e.n then lo := p;
            hi := p;
            mark_succs e x;
            mark_preds e x
          end
        done;
        est_wave e ~log:false !lo;
        cp_wave e !hi;
        e.total <- total_of e
      end;
      e.epoch <- ep
    end

  (* ---------------------------------------------------------------- *)
  (* stage / commit                                                    *)
  (* ---------------------------------------------------------------- *)

  let invalid msg = invalid_arg ("Criticality.Engine.stage: " ^ msg)

  (* window id of uid [x] in the window of the group stamped [g] that
     starts at [lo]: the group's members all collapse onto id 0, which
     is the merged node's min-id *)
  let wid e g lo x = if e.member.(x) = g then 0 else e.pos.(x) - lo

  (* stamp the distinct in-window predecessors of [x] (window id [j])
     with [tag]; returns how many were newly stamped *)
  let count_preds e g lo j x tag =
    let b = e.base.(x) in
    let c = ref 0 in
    for i = 0 to e.arity.(x) - 1 do
      let ps = e.s_prev.(b + i) in
      if ps >= 0 then begin
        let y = e.s_node.(ps) in
        if e.pos.(y) >= lo then begin
          let k = wid e g lo y in
          if k <> j && e.win_stamp.(k) <> tag then begin
            e.win_stamp.(k) <- tag;
            incr c
          end
        end
      end
    done;
    !c

  (* an int min-heap in [e.heap] *)
  let heap_push e j =
    let i = ref e.hsize in
    e.hsize <- e.hsize + 1;
    while !i > 0 && e.heap.((!i - 1) / 2) > j do
      e.heap.(!i) <- e.heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    e.heap.(!i) <- j

  let heap_pop e =
    let top = e.heap.(0) in
    e.hsize <- e.hsize - 1;
    let last = e.heap.(e.hsize) in
    let i = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      if l >= e.hsize then stop := true
      else begin
        let c =
          if l + 1 < e.hsize && e.heap.(l + 1) < e.heap.(l) then l + 1 else l
        in
        if e.heap.(c) < last then begin
          e.heap.(!i) <- e.heap.(c);
          i := c
        end
        else stop := true
      end
    done;
    if e.hsize > 0 then e.heap.(!i) <- last;
    top

  (* release the distinct in-window successors of [x] (window id [j]) *)
  let release_succs e g lo hi j x tag =
    let b = e.base.(x) in
    for i = 0 to e.arity.(x) - 1 do
      let ns = e.s_next.(b + i) in
      if ns >= 0 then begin
        let y = e.s_node.(ns) in
        if e.pos.(y) <= hi then begin
          let k = wid e g lo y in
          if k <> j && e.win_stamp.(k) <> tag then begin
            e.win_stamp.(k) <- tag;
            e.win_indeg.(k) <- e.win_indeg.(k) - 1;
            if e.win_indeg.(k) = 0 then heap_push e k
          end
        end
      end
    done

  (* {!Rewrite.contract_mapped}'s stable min-id Kahn, restricted to the
     window [lo, hi] of the group stamped [g] (members [gm.(moff ..
     moff + mlen - 1)]): writes the window ids in emission order from
     [win_out.(out)] and returns how many it emitted — fewer than the
     window holds exactly when the contraction has a cycle *)
  let order_window e g lo hi moff mlen out =
    for j = 0 to hi - lo do
      let x = e.order.(lo + j) in
      if j = 0 || e.member.(x) <> g then begin
        e.tag <- e.tag + 1;
        let d =
          if j = 0 then begin
            let d = ref 0 in
            for m = moff to moff + mlen - 1 do
              d := !d + count_preds e g lo 0 e.gm.(m) e.tag
            done;
            !d
          end
          else count_preds e g lo j x e.tag
        in
        e.win_indeg.(j) <- d;
        if d = 0 then heap_push e j
      end
    done;
    let k = ref 0 in
    while e.hsize > 0 do
      let j = heap_pop e in
      e.win_out.(out + !k) <- j;
      incr k;
      e.tag <- e.tag + 1;
      if j = 0 then
        for m = moff to moff + mlen - 1 do
          release_succs e g lo hi 0 e.gm.(m) e.tag
        done
      else release_succs e g lo hi j e.order.(lo + j) e.tag
    done;
    !k

  (* overwrite a wire link, logging the old value: [code] is
     [slot * 2] for its next link, [slot * 2 + 1] for its prev link *)
  let set_link e code v =
    let i = e.n_links in
    e.u_links <- grow e.u_links ((2 * i) + 2) 0;
    let s = code lsr 1 in
    e.u_links.(2 * i) <- code;
    e.u_links.((2 * i) + 1) <-
      (if code land 1 = 0 then e.s_next.(s) else e.s_prev.(s));
    e.n_links <- i + 1;
    if code land 1 = 0 then e.s_next.(s) <- v else e.s_prev.(s) <- v

  let stage e groups =
    Obs.with_span "criticality.engine.stage" @@ fun () ->
    (* fold in pending price changes first (discarding any staged
       edit): the edit then only adds the merged nodes' prices *)
    refresh e;
    let gs = Array.of_list groups in
    let ng = Array.length gs in
    (* phase 1 — validate and order each window; nothing moves yet.
       Members are stamped [g0 + gi] in [member] (stamps only grow, so
       stale ones from earlier stages never match). *)
    let g0 = e.tag + 1 in
    e.tag <- e.tag + ng;
    let lo = Array.make ng max_int and hi = Array.make ng (-1) in
    let moff = Array.make ng 0 and mlen = Array.make ng 0 in
    let nm = ref 0 in
    Array.iteri
      (fun gi (nodes, (app : Gate.app)) ->
        let g = g0 + gi in
        if nodes = [] then invalid "empty group";
        moff.(gi) <- !nm;
        List.iter
          (fun p ->
            if p < 0 || p >= e.n then invalid "bad node id";
            let x = e.order.(p) in
            if e.member.(x) >= g0 then invalid "overlapping groups";
            e.member.(x) <- g;
            e.gm.(!nm) <- x;
            incr nm;
            if p < lo.(gi) then lo.(gi) <- p;
            if p > hi.(gi) then hi.(gi) <- p)
          nodes;
        mlen.(gi) <- !nm - moff.(gi);
        (* the replacement must act on exactly the members' qubits: it
           takes their place on each of those wires *)
        e.tag <- e.tag + 2;
        let t = e.tag - 1 and t' = e.tag in
        let n_wires = ref 0 and n_app = ref 0 in
        for m = moff.(gi) to !nm - 1 do
          let x = e.gm.(m) in
          for s = e.base.(x) to e.base.(x) + e.arity.(x) - 1 do
            let q = e.s_wire.(s) in
            if e.wmark.(q) <> t then begin
              e.wmark.(q) <- t;
              incr n_wires
            end
          done
        done;
        List.iter
          (fun q ->
            if q < 0 || q >= e.nq || e.wmark.(q) < t then
              invalid "replacement acts on other qubits";
            if e.wmark.(q) = t then begin
              e.wmark.(q) <- t';
              incr n_app
            end)
          app.Gate.qubits;
        if !n_app <> !n_wires then invalid "replacement acts on other qubits")
      gs;
    let idx = Array.init ng Fun.id in
    Array.sort (fun a b -> compare lo.(a) lo.(b)) idx;
    for k = 1 to ng - 1 do
      if hi.(idx.(k - 1)) >= lo.(idx.(k)) then invalid "overlapping group spans"
    done;
    let woff = Array.make ng 0 and wlen = Array.make ng 0 in
    let out = ref 0 in
    Array.iter
      (fun gi ->
        let k =
          order_window e (g0 + gi) lo.(gi) hi.(gi) moff.(gi) mlen.(gi) !out
        in
        if k <> hi.(gi) - lo.(gi) + 1 - (mlen.(gi) - 1) then
          invalid "non-convex group";
        woff.(gi) <- !out;
        wlen.(gi) <- k;
        out := !out + k)
      idx;
    (* phase 2 — splice, logging everything [discard] must restore *)
    let lo_min = if ng = 0 then e.n else lo.(idx.(0)) in
    e.u_n <- e.n;
    e.u_next_uid <- e.next_uid;
    e.u_next_slot <- e.next_slot;
    e.u_total <- e.total;
    e.u_lo <- lo_min;
    Array.blit e.order lo_min e.saved 0 (e.n - lo_min);
    e.fresh <- grow e.fresh ng 0;
    e.n_fresh <- ng;
    Array.iteri
      (fun k gi ->
        let g = g0 + gi in
        let w = add_node e (snd gs.(gi)) in
        e.fresh.(k) <- w;
        (* no value yet: the waves see any recomputation as a change *)
        e.est.(w) <- Float.nan;
        e.cp.(w) <- Float.nan;
        let b = e.base.(w) in
        for i = 0 to e.arity.(w) - 1 do
          (* on each of its wires the group is one contiguous run: the
             merged node links to the run's outside neighbours *)
          let q = e.s_wire.(b + i) in
          let pv = ref (-1) and nx = ref (-1) in
          for m = moff.(gi) to moff.(gi) + mlen.(gi) - 1 do
            let x = e.gm.(m) in
            for t = e.base.(x) to e.base.(x) + e.arity.(x) - 1 do
              if e.s_wire.(t) = q then begin
                let tp = e.s_prev.(t) and tn = e.s_next.(t) in
                if tp >= 0 && e.member.(e.s_node.(tp)) <> g then pv := tp;
                if tn >= 0 && e.member.(e.s_node.(tn)) <> g then nx := tn
              end
            done
          done;
          e.s_prev.(b + i) <- !pv;
          e.s_next.(b + i) <- !nx;
          if !pv >= 0 then set_link e (2 * !pv) (b + i);
          if !nx >= 0 then set_link e ((2 * !nx) + 1) (b + i)
        done)
      idx;
    (* the new order: windows in Kahn order, everything above a window
       shifted down over the members it lost *)
    let wp = ref lo_min and rp = ref lo_min in
    Array.iteri
      (fun k gi ->
        while !rp < lo.(gi) do
          e.order.(!wp) <- e.saved.(!rp - lo_min);
          incr wp;
          incr rp
        done;
        for t = woff.(gi) to woff.(gi) + wlen.(gi) - 1 do
          let j = e.win_out.(t) in
          e.order.(!wp) <-
            (if j = 0 then e.fresh.(k) else e.saved.(lo.(gi) + j - lo_min));
          incr wp
        done;
        rp := hi.(gi) + 1)
      idx;
    while !rp < e.u_n do
      e.order.(!wp) <- e.saved.(!rp - lo_min);
      incr wp;
      incr rp
    done;
    e.n <- !wp;
    for p = lo_min to e.n - 1 do
      e.pos.(e.order.(p)) <- p
    done;
    for k = 0 to ng - 1 do
      mark_est e e.fresh.(k)
    done;
    est_wave e ~log:true lo_min;
    e.total <- total_of e;
    e.staged <- true;
    e.total

  let commit e =
    if not e.staged then
      invalid_arg "Criticality.Engine.commit: nothing staged";
    Obs.with_span "criticality.engine.commit" @@ fun () ->
    let from = ref (-1) in
    for k = 0 to e.n_fresh - 1 do
      let w = e.fresh.(k) in
      mark_cp e w;
      if e.pos.(w) > !from then from := e.pos.(w)
    done;
    cp_wave e !from;
    e.n_est <- 0;
    e.n_links <- 0;
    e.n_fresh <- 0;
    e.staged <- false

  (* ---------------------------------------------------------------- *)
  (* the scoring view                                                  *)
  (* ---------------------------------------------------------------- *)

  type view = {
    mutable lat : float array;
    mutable cp : float array;
    mutable crit : bool array;
    mutable m : int;
    mutable src : int array;
    mutable dst : int array;
    mutable slot : int array;
    mutable dst_uid : int array;
    mutable n_slots : int;
  }

  let view () =
    { lat = [||]; cp = [||]; crit = [||]; m = 0; src = [||];
      dst = [||]; slot = [||]; dst_uid = [||]; n_slots = 0 }

  (* one pass over the positions and their wires: node quantities by
     position, then each distinct successor once *)
  let fill_view (e : e) (w : view) =
    let n = e.n in
    if Array.length w.lat < n then begin
      w.lat <- Array.make n 0.0;
      w.cp <- Array.make n 0.0;
      w.crit <- Array.make n false
    end;
    let cut = e.total -. (1e-9 *. (1.0 +. e.total)) in
    let m = ref 0 in
    for p = 0 to n - 1 do
      let x = e.order.(p) in
      w.lat.(p) <- e.lat.(x);
      w.cp.(p) <- e.cp.(x);
      w.crit.(p) <- e.est.(x) +. e.lat.(x) +. e.cp.(x) >= cut;
      let b = e.base.(x) in
      for i = 0 to e.arity.(x) - 1 do
        let ns = e.s_next.(b + i) in
        if ns >= 0 then begin
          let y = e.s_node.(ns) in
          let dup = ref false in
          for j = 0 to i - 1 do
            let t = e.s_next.(b + j) in
            if t >= 0 && e.s_node.(t) = y then dup := true
          done;
          if not !dup then begin
            let k = !m in
            if k >= Array.length w.src then begin
              w.src <- grow w.src (k + 1) 0;
              w.dst <- grow w.dst (k + 1) 0;
              w.slot <- grow w.slot (k + 1) 0;
              w.dst_uid <- grow w.dst_uid (k + 1) 0
            end;
            w.src.(k) <- p;
            w.dst.(k) <- e.pos.(y);
            w.slot.(k) <- b + i;
            w.dst_uid.(k) <- y;
            m := k + 1
          end
        end
      done
    done;
    w.m <- !m;
    w.n_slots <- e.next_slot
end

(* Sequential TRW-S over Kolmogorov's monotonic-chain decomposition,
   and the zoned Lagrangian decomposition built on it.  trws.mli states
   the contract; DESIGN.md "TRW-S memory layout" explains the message
   state below and why its passes give the same bits as the plain
   formulation kept in test/trws_oracle.ml. *)

module Obs = Netdiv_obs.Obs
module Recorder = Netdiv_obs.Recorder
module Pool = Netdiv_par.Pool
open Kernel

(* Telemetry handles (shared with Bp via the names, all no-ops until
   Obs.set_enabled true): message updates by kernel class, per-sweep
   energy/bound samples. *)
let c_msg_potts = Obs.Counter.make "mrf.messages.potts"
let c_msg_sparse = Obs.Counter.make "mrf.messages.const_sparse"
let c_msg_generic = Obs.Counter.make "mrf.messages.generic"

type config = {
  max_iters : int;
  tolerance : float;
  patience : int;
  bound_every : int;
}

let default_config =
  { max_iters = 100; tolerance = 1e-7; patience = 3; bound_every = 1 }

(* Message state, laid out so that every per-iteration pass streams over
   its metadata in the order it walks the model's incidence rows (see
   DESIGN.md, "TRW-S memory layout"):

   - [msg] is one interleaved slab: edge e = (u, v) owns one block, its
     message into u (length labels.(u)) followed by its message into v
     (length labels.(v)), so both directions of an edge sit side by
     side;
   - [slot] holds one packed word per incidence slot (see [pack]): the
     offset in [msg] of the message into the slot's node, the edge's
     table id, and whether that node is the edge's u end.  The
     neighbour comes from the model's [col], slot for slot;
   - [chains] packs the monotonic chain decomposition (Kolmogorov) into
     one array, chain after chain: the chain's length and its first
     node, then two words per edge from lower to higher node order —
     the edge's packed word seen from its lower end, and its higher
     node.  Every edge belongs to exactly one chain; node [i] lies on
     [max(#lower, #higher)] chains.  Chains are stored in descending
     order of their first edge id, the order the bound sums their
     minima in.

   Unaries and the bound's weighted aggregates live on unboxed
   [floatarray] slabs as well; per-solve mutable scratch lives in
   {!workspace}. *)
type state = {
  labels : int array;
  unary_off : int array;
  unary : floatarray;  (* unboxed copy of the model's unaries *)
  pot_off : int array;
  pot : float array;
  inc_off : int array;
  col : int array;
  slot : int array;
  msg : floatarray;
  classes : Kernel.t array;
  lb_agg : floatarray;
      (* gamma-weighted aggregates, written by the backward sweep *)
  gamma : float array;
  chains : int array;
}

(* Per-solve scratch, reused across all messages, so the hot path never
   allocates (minor GCs are stop-the-world across ALL domains, and zone
   sub-solves run on several). *)
type workspace = {
  theta : floatarray;
  ks : Kernel.scratch;
  dp : floatarray;  (* lower_bound chain DP row *)
}

(* A packed word: message offset in the high bits, table id above the
   orientation bit ([is_u]: the node the word belongs to is the edge's u
   end).  The message into the other end sits at [off + labels(node)]
   when [is_u], else at [off - labels(other end)]. *)
let pack ~off ~tab ~is_u = (off lsl 31) lor (tab lsl 1) lor Bool.to_int is_u
let[@inline] w_off w = w lsr 31
let[@inline] w_tab w = (w lsr 1) land 0x3FFF_FFFF
let[@inline] w_is_u w = w land 1 = 1

let make_state mrf =
  let {
    Mrf.Compact.i_labels = labels;
    i_unary_off = unary_off;
    i_unary = unary;
    i_eu = eu;
    i_ev = ev;
    i_etab = etab;
    i_pot_off = pot_off;
    i_pot = pot;
    i_inc_off = inc_off;
    i_inc = inc;
    i_col = col;
    i_classes = classes;
  } =
    Mrf.Compact.arrays mrf
  in
  let n = Array.length labels and m = Array.length eu in
  let base = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    base.(e + 1) <- base.(e) + labels.(eu.(e)) + labels.(ev.(e))
  done;
  if base.(m) >= 1 lsl 31 || Array.length pot_off > 1 lsl 30 then
    invalid_arg "Trws: model too large for the packed message layout";
  let slot = Array.make (Array.length inc) 0 in
  let gamma = Array.make n 1.0 in
  let succ = Array.make m (-1) and has_pred = Array.make m false in
  for i = 0 to n - 1 do
    let lo = inc_off.(i) and hi = inc_off.(i + 1) in
    let split = ref lo in
    for p = lo to hi - 1 do
      let e = inc.(p) lsr 1 and is_u = inc.(p) land 1 = 1 in
      let off = if is_u then base.(e) else base.(e) + labels.(col.(p)) in
      slot.(p) <- pack ~off ~tab:etab.(e) ~is_u;
      if col.(p) < i then incr split
    done;
    (* the slice is sorted by opposite endpoint, so the lower edges come
       first: pair the k-th lower edge with the k-th higher one;
       unpaired higher edges start chains, unpaired lower edges end
       them *)
    let lower = !split - lo and higher = hi - !split in
    gamma.(i) <- 1.0 /. float_of_int (max 1 (max lower higher));
    for k = 0 to min lower higher - 1 do
      let e' = inc.(!split + k) lsr 1 in
      succ.(inc.(lo + k) lsr 1) <- e';
      has_pred.(e') <- true
    done
  done;
  let heads = Array.fold_left (fun c p -> if p then c else c + 1) 0 has_pred in
  let chains = Array.make (2 * (heads + m)) 0 in
  let cur = ref 0 in
  for e0 = m - 1 downto 0 do
    if not has_pred.(e0) then begin
      let head = !cur in
      chains.(head + 1) <- min eu.(e0) ev.(e0);
      cur := head + 2;
      let e = ref e0 in
      while !e >= 0 do
        let u = eu.(!e) and v = ev.(!e) in
        let off = if u < v then base.(!e) else base.(!e) + labels.(u) in
        chains.(!cur) <- pack ~off ~tab:etab.(!e) ~is_u:(u < v);
        chains.(!cur + 1) <- max u v;
        cur := !cur + 2;
        e := succ.(!e)
      done;
      chains.(head) <- (!cur - head - 2) / 2
    end
  done;
  {
    labels;
    unary_off;
    unary = Float.Array.init unary_off.(n) (fun k -> unary.(k));
    pot_off;
    pot;
    inc_off;
    col;
    slot;
    msg = Float.Array.make base.(m) 0.0;
    classes;
    (* per-iteration bound scratch lives in the state: allocating it per
       bound made every iteration churn the minor heap, and minor
       collections are stop-the-world across ALL domains — the parallel
       zone solves then serialize on the GC barrier *)
    lb_agg = Float.Array.make unary_off.(n) 0.0;
    gamma;
    chains;
  }

let make_workspace st =
  let kmax = Array.fold_left max 1 st.labels in
  {
    theta = Float.Array.make kmax 0.0;
    ks = Kernel.make_scratch ~max_labels:kmax;
    dp = Float.Array.make kmax 0.0;
  }

(* Aggregate node i's unary plus all incoming messages into [theta]. *)
let aggregate st i (theta : floatarray) =
  let k = st.labels.(i) in
  let u0 = st.unary_off.(i) in
  for x = 0 to k - 1 do
    theta.%(x) <- st.unary.%(u0 + x)
  done;
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let off = w_off st.slot.(p) in
    for x = 0 to k - 1 do
      theta.%(x) <- theta.%(x) +. st.msg.%(off + x)
    done
  done

(* Update node [i]'s outgoing messages in direction [forward] (toward
   higher neighbours when [forward], lower otherwise).  The backward
   sweep also stores i's gamma-weighted aggregate for the bound: the
   messages into i that this sweep writes come from higher neighbours,
   processed before i, and no later update of the iteration writes
   one, so the aggregate is the one a pass after the sweep would read. *)
let process_node st ws ~forward i =
  let theta = ws.theta in
  aggregate st i theta;
  let k = st.labels.(i) in
  let g = st.gamma.(i) in
  if not forward then begin
    let off = st.unary_off.(i) in
    for x = 0 to k - 1 do
      st.lb_agg.%(off + x) <- g *. theta.%(x)
    done
  end;
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let j = st.col.(p) in
    if if forward then j > i else j < i then begin
      let w = st.slot.(p) in
      let kj = st.labels.(j) in
      let tab = w_tab w and i_is_u = w_is_u w in
      (* message into i along the edge (to be subtracted) and out of i
         (to be written), both in the edge's block *)
      let in_off = w_off w in
      let out_off = if i_is_u then in_off + k else in_off - kj in
      (* reduction input: reparameterized node cost minus the reverse
         message.  Precomputed once so every kernel — including the
         generic scan — reads it O(L) times instead of recomputing it
         O(L²) times. *)
      let h = ws.ks.Kernel.h in
      for xi = 0 to k - 1 do
        h.%(xi) <- (g *. theta.%(xi)) -. st.msg.%(in_off + xi)
      done;
      let vmin =
        Kernel.update st.classes.(tab) ~pot:st.pot ~p0:st.pot_off.(tab)
          ~src_is_u:i_is_u ~k_src:k ~k_out:kj ~scratch:ws.ks ~out:st.msg
          ~out_off
      in
      (* normalize so the smallest entry is zero *)
      for xj = 0 to kj - 1 do
        st.msg.%(out_off + xj) <- st.msg.%(out_off + xj) -. vmin
      done
    end
  done

(* One sequential sweep.  [forward] selects direction: process nodes in
   increasing order updating messages to higher neighbours, or the
   mirror image. *)
let sweep st ws n forward =
  if forward then
    for i = 0 to n - 1 do
      process_node st ws ~forward:true i
    done
  else
    for i = n - 1 downto 0 do
      process_node st ws ~forward:false i
    done

(* TRW dual bound for the monotonic-chain decomposition: the energy is
   split as E(x) = sum_C E_C(x_C) with per-chain node costs gamma_i *
   theta_hat_i and reparameterized edge costs; the bound is the sum of the
   chains' independent minima, computed by dynamic programming along each
   chain, plus the unary minima of isolated nodes.  Valid for any message
   state (each chain min <= the chain's value at the true optimum), and
   tight at TRW-S fixed points on trees.  Reads the aggregates the last
   backward sweep left in [lb_agg].

   Each DP step is one [Kernel.update] into [dp], with the message into
   the chain's low end folded into the reduction input and the message
   into its high end subtracted after the minimum:
     dp'[y] = (min_x (dp[x] - msg_into_low[x]) + pot[xu,xv])
              - msg_into_high[y] + agg_high[y]
   with (xu, xv) = (x, y) when the low node is u and (y, x) otherwise.
   Subtracting after the minimum instead of inside it gives the same
   bound bits: for a finite message, rounding is monotone, so the two
   commute; for a non-finite one, the orders differ only where one
   gives +inf and the other NaN, and such an entry only ever produces
   +inf or NaN downstream, which no minimum (strict [<] from +inf)
   selects.  The frozen oracle in the
   tests checks this on non-finite costs. *)
let lower_bound st ws n =
  let ch = st.chains and msg = st.msg and agg = st.lb_agg in
  let dp = ws.dp and h = ws.ks.Kernel.h in
  let acc = ref 0.0 in
  let cur = ref 0 in
  while !cur < Array.length ch do
    let len = ch.(!cur) and first = ch.(!cur + 1) in
    let k_lo = ref st.labels.(first) in
    Float.Array.blit agg st.unary_off.(first) dp 0 !k_lo;
    for s = 0 to len - 1 do
      let w = ch.(!cur + 2 + (2 * s)) and hi = ch.(!cur + 3 + (2 * s)) in
      let kl = !k_lo and kh = st.labels.(hi) in
      let lo_in = w_off w and lo_is_u = w_is_u w and tab = w_tab w in
      let hi_in = if lo_is_u then lo_in + kl else lo_in - kh in
      for x = 0 to kl - 1 do
        h.%(x) <- dp.%(x) -. msg.%(lo_in + x)
      done;
      ignore
        (Kernel.update st.classes.(tab) ~pot:st.pot ~p0:st.pot_off.(tab)
           ~src_is_u:lo_is_u ~k_src:kl ~k_out:kh ~scratch:ws.ks ~out:dp
           ~out_off:0);
      let hoff = st.unary_off.(hi) in
      for y = 0 to kh - 1 do
        dp.%(y) <- dp.%(y) -. msg.%(hi_in + y) +. agg.%(hoff + y)
      done;
      k_lo := kh
    done;
    let best = ref infinity in
    for x = 0 to !k_lo - 1 do
      if dp.%(x) < !best then best := dp.%(x)
    done;
    acc := !acc +. !best;
    cur := !cur + 2 + (2 * len)
  done;
  for i = n - 1 downto 0 do
    if st.inc_off.(i + 1) = st.inc_off.(i) then begin
      let best = ref infinity in
      for x = 0 to st.labels.(i) - 1 do
        let c = st.unary.%(st.unary_off.(i) + x) in
        if c < !best then best := c
      done;
      acc := !acc +. !best
    end
  done;
  !acc

(* Message updates one full iteration (forward + backward sweep)
   performs, split by kernel class: each edge's two directed messages
   (one per incidence slot) are recomputed exactly once per iteration.
   Computed once per solve and flushed as one counter add per class per
   iteration, so the per-message hot path carries no instrumentation at
   all. *)
let count_messages st =
  let potts = ref 0 and sparse = ref 0 and generic = ref 0 in
  Array.iter
    (fun w ->
      match st.classes.(w_tab w) with
      | Kernel.Potts _ -> incr potts
      | Kernel.Const_sparse _ -> incr sparse
      | Kernel.Generic -> incr generic)
    st.slot;
  (!potts, !sparse, !generic)

(* Greedy decoding in node order: condition on already decoded lower
   neighbours, use incoming messages from undecoded higher ones. *)
let decode st ws n x =
  let theta = ws.theta in
  for i = 0 to n - 1 do
    let k = st.labels.(i) in
    let u0 = st.unary_off.(i) in
    for xi = 0 to k - 1 do
      theta.%(xi) <- st.unary.%(u0 + xi)
    done;
    for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
      let j = st.col.(p) and w = st.slot.(p) in
      if j < i then begin
        let p0 = st.pot_off.(w_tab w) in
        let kj = st.labels.(j) in
        for xi = 0 to k - 1 do
          let pair =
            if w_is_u w then st.pot.(p0 + (xi * kj) + x.(j))
            else st.pot.(p0 + (x.(j) * k) + xi)
          in
          theta.%(xi) <- theta.%(xi) +. pair
        done
      end
      else begin
        let off = w_off w in
        for xi = 0 to k - 1 do
          theta.%(xi) <- theta.%(xi) +. st.msg.%(off + xi)
        done
      end
    done;
    let best = ref 0 in
    for xi = 1 to k - 1 do
      if theta.%(xi) < theta.%(!best) then best := xi
    done;
    x.(i) <- !best
  done

(* The iteration loop: sweeps, convergence bookkeeping, telemetry. *)
let run_loop ~config ~interrupt ~on_progress mrf st ws n =
  (* enablement is sampled once per solve; per-iteration work below is
     a handful of counter adds and begin/end span records, all
     allocation-free, and zero when disabled *)
  let obs_on = Obs.enabled () in
  (* the flight recorder is sampled once per solve too: installation
     never changes inside a solve (only [Recorder.suspended] around
     the zoned solver's parallel regions does, and those wrap whole
     zone solves) *)
  let rec_on = Recorder.installed () in
  let msg_potts, msg_sparse, msg_generic =
    if obs_on || rec_on then count_messages st else (0, 0, 0)
  in
  let x = Array.make n 0 in
  let best_x = Array.make n 0 in
  decode st ws n best_x;
  let best_energy = ref (Mrf.energy mrf best_x) in
  let prev_energy = ref !best_energy in
  let best_bound = ref neg_infinity in
  let stall = ref 0 in
  let iters = ref 0 in
  let converged = ref false in
  (try
     for it = 1 to config.max_iters do
       if interrupt () then raise Exit;
       iters := it;
       Obs.begin_span "trws.sweep";
       sweep st ws n true;
       sweep st ws n false;
       Obs.end_span "trws.sweep";
       if obs_on then begin
         Obs.Counter.add c_msg_potts msg_potts;
         Obs.Counter.add c_msg_sparse msg_sparse;
         Obs.Counter.add c_msg_generic msg_generic
       end;
       if it mod config.bound_every = 0 || it = config.max_iters then begin
         Obs.begin_span "trws.bound";
         let lb = lower_bound st ws n in
         decode st ws n x;
         Obs.end_span "trws.bound";
         let e = Mrf.energy mrf x in
         if e < !best_energy then begin
           best_energy := e;
           Array.blit x 0 best_x 0 n
         end;
         let bound_progress = lb -. !best_bound in
         if lb > !best_bound then best_bound := lb;
         let energy_progress = !prev_energy -. !best_energy in
         prev_energy := !best_energy;
         Obs.sample ~name:"trws.energy" !best_energy;
         Obs.sample ~name:"trws.lower_bound" !best_bound;
         if rec_on then
           Recorder.sweep ~iter:it ~energy:!best_energy ~bound:!best_bound
             ~residual:(Float.max bound_progress energy_progress)
             ~msg_potts ~msg_sparse ~msg_generic;
         on_progress ~iter:it ~energy:!best_energy ~bound:!best_bound;
         if
           bound_progress < config.tolerance
           && energy_progress < config.tolerance
         then incr stall
         else stall := 0;
         if
           !stall >= config.patience
           || !best_energy -. !best_bound < config.tolerance
         then begin
           converged := true;
           raise Exit
         end
       end
     done
   with Exit -> ());
  if obs_on then begin
    (* per-solve message totals as samples, so an exported trace (not
       just the live registry) carries the kernel-class mix — the
       report's throughput table sums these *)
    Obs.sample ~name:"mrf.messages.potts"
      (float_of_int (msg_potts * !iters));
    Obs.sample ~name:"mrf.messages.const_sparse"
      (float_of_int (msg_sparse * !iters));
    Obs.sample ~name:"mrf.messages.generic"
      (float_of_int (msg_generic * !iters))
  end;
  (best_x, !best_energy, !best_bound, !iters, !converged)

let solve ?(config = default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) mrf =
  let run () =
    let st = make_state mrf in
    let ws = make_workspace st in
    let n = Mrf.n_nodes mrf in
    run_loop ~config ~interrupt ~on_progress mrf st ws n
  in
  let (labeling, energy, lb, iterations, converged), runtime_s =
    Solver.timed (fun () -> Obs.span ~name:"trws.solve" run)
  in
  {
    Solver.labeling;
    energy;
    lower_bound = lb;
    iterations;
    converged;
    runtime_s;
  }

(* ---- block-coordinate zone decomposition ------------------------------- *)

(* Fallback zone assignment when the caller has none: deterministic BFS
   growth over the model's CSR adjacency, the MRF-side mirror of
   Graph.Cut.greedy_partition.  Zones are grown one at a time from the
   lowest unassigned node, absorbing neighbors in incidence order until
   the zone reaches its quota — a function of the frozen model only. *)
let greedy_zone_partition mrf ~zones =
  let n = Mrf.n_nodes mrf in
  let zones = max 1 (min zones (max 1 n)) in
  let zone = Array.make (max 1 n) (-1) in
  let base = n / zones and extra = n mod zones in
  let queue = Queue.create () in
  let scan = ref 0 in
  for z = 0 to zones - 1 do
    let remaining = ref (base + if z < extra then 1 else 0) in
    Queue.clear queue;
    while !remaining > 0 do
      if Queue.is_empty queue then begin
        while zone.(!scan) >= 0 do
          incr scan
        done;
        zone.(!scan) <- z;
        decr remaining;
        Queue.add !scan queue
      end
      else begin
        let u = Queue.pop queue in
        for k = Mrf.Compact.row_start mrf u to Mrf.Compact.row_stop mrf u - 1
        do
          let v = Mrf.Compact.neighbor mrf k in
          if !remaining > 0 && zone.(v) < 0 then begin
            zone.(v) <- z;
            decr remaining;
            Queue.add v queue
          end
        done
      end
    done
  done;
  zone

(* Zone count when the caller gives neither [zones] nor [zone_of]: a
   function of the model size only, never of the job count.  Small
   models stay whole; the boundary reconciliation is pure overhead
   there. *)
let default_zones n = if n < 4096 then 1 else 16

let default_zone_rounds = 8
let default_zone_step = 0.25

(* Lagrangian (dual) decomposition over zones.  Zone slaves own their
   interior edges and unaries plus the running boundary penalties; each
   boundary edge (u, v) is its own two-variable slave
   min_{xu, xv} [ pot(xu, xv) - lam_u(xu) - lam_v(xv) ], so for any
   labeling the slave objectives sum exactly to E and

     sum_z bound(zone slave) + sum_boundary min(edge slave)  <=  min E

   is a valid global lower bound even though each zone bound is itself a
   TRW-S dual bound rather than an exact minimum.  After each round the
   multipliers move one subgradient step toward agreement between the
   zone argmin and the edge-slave argmin, in global boundary-edge order
   with a deterministic diminishing step — so the trajectory is a
   function of the zone map only, never of the job count, and rounds
   stop early when every boundary edge agrees. *)
let solve_zoned ?(config = default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) ?zones ?zone_of
    ?(rounds = default_zone_rounds) ?(step = default_zone_step) ?jobs mrf =
  let n = Mrf.n_nodes mrf and m = Mrf.n_edges mrf in
  (* normalize the zone map: dense ids in order of first appearance *)
  let zone_of, nz =
    match zone_of with
    | Some z ->
        if Array.length z <> n then
          invalid_arg "Trws.solve_zoned: zone_of has wrong length";
        let dense = Array.make (max 1 n) 0 in
        let id_of = Hashtbl.create 16 in
        let next = ref 0 in
        for i = 0 to n - 1 do
          if z.(i) < 0 then
            invalid_arg "Trws.solve_zoned: negative zone id";
          dense.(i) <-
            (match Hashtbl.find_opt id_of z.(i) with
            | Some id -> id
            | None ->
                let id = !next in
                incr next;
                Hashtbl.add id_of z.(i) id;
                id)
        done;
        (dense, max 1 !next)
    | None ->
        let zones =
          match zones with
          | Some z -> max 1 (min z (max 1 n))
          | None -> default_zones n
        in
        if zones <= 1 then (Array.make (max 1 n) 0, 1)
        else (greedy_zone_partition mrf ~zones, zones)
  in
  if nz <= 1 then solve ~config ~interrupt ~on_progress mrf
  else begin
    let run () =
      let {
        Mrf.Compact.i_labels = g_labels;
        i_eu = g_eu;
        i_ev = g_ev;
        i_etab = g_etab;
        i_pot_off = g_pot_off;
        i_pot = g_pot;
        _;
      } =
        Mrf.Compact.arrays mrf
      in
      (* zone membership, local indices, per-zone node lists in global
         node order *)
      let sizes = Array.make nz 0 in
      let local = Array.make n 0 in
      for i = 0 to n - 1 do
        let z = zone_of.(i) in
        local.(i) <- sizes.(z);
        sizes.(z) <- sizes.(z) + 1
      done;
      let nodes = Array.init nz (fun z -> Array.make (max 1 sizes.(z)) 0) in
      for i = 0 to n - 1 do
        nodes.(zone_of.(i)).(local.(i)) <- i
      done;
      let builders =
        Array.init nz (fun z ->
            Mrf.Builder.create
              ~label_counts:
                (Array.init sizes.(z) (fun li ->
                     g_labels.(nodes.(z).(li)))))
      in
      Array.iteri
        (fun z ns ->
          if sizes.(z) > 0 then
            Array.iteri
              (fun li gi ->
                let k = g_labels.(gi) in
                Mrf.Builder.set_unary builders.(z) ~node:li
                  (Array.init k (fun label -> Mrf.unary mrf ~node:gi ~label)))
              ns)
        nodes;
      (* first pass: count interior edges per zone and boundary edges *)
      let interior = Array.make nz 0 in
      let nb = ref 0 in
      for e = 0 to m - 1 do
        let zu = zone_of.(g_eu.(e)) and zv = zone_of.(g_ev.(e)) in
        if zu = zv then interior.(zu) <- interior.(zu) + 1 else incr nb
      done;
      let nb = !nb in
      Array.iteri (fun z c -> Mrf.Builder.reserve_edges builders.(z) c)
        interior;
      (* second pass: interior edges stream into their zone builder in
         global edge order (interned tables pass through shared, so
         sub-model interning is cheap); boundary edges are recorded in
         global edge order — the order every multiplier update uses *)
      let be = Array.make (max 1 nb) 0 in
      let cur = ref 0 in
      for e = 0 to m - 1 do
        let u = g_eu.(e) and v = g_ev.(e) in
        if zone_of.(u) = zone_of.(v) then
          Mrf.Builder.add_edge builders.(zone_of.(u)) local.(u) local.(v)
            (Mrf.edge_cost mrf e)
        else begin
          be.(!cur) <- e;
          incr cur
        end
      done;
      let subs = Array.map Mrf.Builder.build builders in
      (* per-zone effective unary slabs: base copy + running penalties;
         each zone model is wrapped once and re-reads the slab every
         round *)
      let base =
        Array.map (fun s -> (Mrf.Compact.arrays s).Mrf.Compact.i_unary) subs
      in
      let eff = Array.map Array.copy base in
      let wrapped =
        Array.init nz (fun z -> Mrf.with_unaries subs.(z) eff.(z))
      in
      let sub_uoff =
        Array.map
          (fun s -> (Mrf.Compact.arrays s).Mrf.Compact.i_unary_off)
          subs
      in
      (* boundary-edge metadata, flat in boundary order *)
      let b_u = Array.make (max 1 nb) 0 and b_v = Array.make (max 1 nb) 0 in
      let b_ku = Array.make (max 1 nb) 0 and b_kv = Array.make (max 1 nb) 0 in
      let b_uoff = Array.make (max 1 nb) 0 in
      let b_voff = Array.make (max 1 nb) 0 in
      let b_p0 = Array.make (max 1 nb) 0 in
      let lam_off = Array.make (nb + 1) 0 in
      for bi = 0 to nb - 1 do
        let e = be.(bi) in
        let u = g_eu.(e) and v = g_ev.(e) in
        b_u.(bi) <- u;
        b_v.(bi) <- v;
        b_ku.(bi) <- g_labels.(u);
        b_kv.(bi) <- g_labels.(v);
        b_uoff.(bi) <- sub_uoff.(zone_of.(u)).(local.(u));
        b_voff.(bi) <- sub_uoff.(zone_of.(v)).(local.(v));
        b_p0.(bi) <- g_pot_off.(g_etab.(e));
        lam_off.(bi + 1) <- lam_off.(bi) + g_labels.(u) + g_labels.(v)
      done;
      let lam = Array.make (max 1 lam_off.(nb)) 0.0 in
      let team = Pool.Team.create ?jobs () in
      Fun.protect
        ~finally:(fun () -> Pool.Team.stop team)
        (fun () ->
          let dummy =
            {
              Solver.labeling = [||];
              energy = infinity;
              lower_bound = neg_infinity;
              iterations = 0;
              converged = false;
              runtime_s = 0.0;
            }
          in
          let results = Array.make nz dummy in
          let solve_zone z =
            Pool.write results z (solve ~config ~interrupt wrapped.(z))
          in
          let xhat = Array.make n 0 in
          let best_x = Array.make n 0 in
          let best_energy = ref infinity in
          let best_bound = ref neg_infinity in
          let iters = ref 0 in
          let converged = ref false in
          let rec_on = Recorder.installed () in
          (* scalar scratch for the edge-slave argmin, hoisted out of
             the round loop *)
          let sl_best = ref 0.0 in
          let sl_bu = ref 0 and sl_bv = ref 0 in
          (try
             for r = 0 to rounds - 1 do
               if interrupt () then raise Exit;
               iters := r + 1;
               (* refresh effective unaries: base + current penalties *)
               Array.iteri
                 (fun z b -> Array.blit b 0 eff.(z) 0 (Array.length b))
                 base;
               for bi = 0 to nb - 1 do
                 let lo = lam_off.(bi) in
                 let ku = b_ku.(bi) and kv = b_kv.(bi) in
                 let zu = zone_of.(b_u.(bi)) and zv = zone_of.(b_v.(bi)) in
                 let uo = b_uoff.(bi) and vo = b_voff.(bi) in
                 for l = 0 to ku - 1 do
                   eff.(zu).(uo + l) <- eff.(zu).(uo + l) +. lam.(lo + l)
                 done;
                 for l = 0 to kv - 1 do
                   eff.(zv).(vo + l) <- eff.(zv).(vo + l) +. lam.(lo + ku + l)
                 done
               done;
               (* zone-interior solves in parallel; each chunk writes
                  only its own result slots *)
               Obs.begin_span "trws.zones";
               (* zone sub-solves claim chunks dynamically (and the
                  caller participates): suspend the flight recorder so
                  the orchestrator-level frames below stay the only —
                  and deterministic — record of this round *)
               Recorder.suspended (fun () ->
                   Pool.Team.run team ~chunks:nz ~lo:0 ~hi:nz
                     (fun _c clo chi ->
                       for z = clo to chi - 1 do
                         solve_zone z
                       done));
               Obs.end_span "trws.zones";
               for z = 0 to nz - 1 do
                 let ns = nodes.(z) and r = results.(z) in
                 for li = 0 to sizes.(z) - 1 do
                   xhat.(ns.(li)) <- r.Solver.labeling.(li)
                 done
               done;
               (* boundary reconciliation: edge-slave minima complete
                  the dual bound; disagreeing multipliers take one
                  diminishing subgradient step, in global order *)
               Obs.begin_span "trws.boundary";
               let zb = ref 0.0 in
               for z = 0 to nz - 1 do
                 zb := !zb +. results.(z).Solver.lower_bound
               done;
               let eb = ref 0.0 in
               let disagree = ref 0 in
               let step_r = step /. float_of_int (r + 1) in
               for bi = 0 to nb - 1 do
                 let lo = lam_off.(bi) in
                 let ku = b_ku.(bi) and kv = b_kv.(bi) in
                 let p0 = b_p0.(bi) in
                 sl_best := infinity;
                 sl_bu := 0;
                 sl_bv := 0;
                 for xu = 0 to ku - 1 do
                   for xv = 0 to kv - 1 do
                     let c =
                       g_pot.(p0 + (xu * kv) + xv)
                       -. lam.(lo + xu)
                       -. lam.(lo + ku + xv)
                     in
                     if c < !sl_best then begin
                       sl_best := c;
                       sl_bu := xu;
                       sl_bv := xv
                     end
                   done
                 done;
                 eb := !eb +. !sl_best;
                 let xu = xhat.(b_u.(bi)) and xv = xhat.(b_v.(bi)) in
                 if xu <> !sl_bu then begin
                   incr disagree;
                   lam.(lo + xu) <- lam.(lo + xu) +. step_r;
                   lam.(lo + !sl_bu) <- lam.(lo + !sl_bu) -. step_r
                 end;
                 if xv <> !sl_bv then begin
                   incr disagree;
                   lam.(lo + ku + xv) <- lam.(lo + ku + xv) +. step_r;
                   lam.(lo + ku + !sl_bv) <- lam.(lo + ku + !sl_bv) -. step_r
                 end
               done;
               Obs.end_span "trws.boundary";
               let lb = !zb +. !eb in
               let prev_bound = !best_bound and prev_energy = !best_energy in
               if lb > !best_bound then best_bound := lb;
               (* the concatenated zone labelings are always a feasible
                  primal point of the full model *)
               let e = Mrf.energy mrf xhat in
               if e < !best_energy then begin
                 best_energy := e;
                 Array.blit xhat 0 best_x 0 n
               end;
               Obs.sample ~name:"trws.energy" !best_energy;
               Obs.sample ~name:"trws.lower_bound" !best_bound;
               if rec_on then begin
                 (* per-round black box: one frame per zone, the
                    boundary reconciliation, and a round-level sweep
                    frame — all orchestrator-side, so the recording is a
                    function of the zone map only *)
                 for z = 0 to nz - 1 do
                   let res = results.(z) in
                   Recorder.zone ~round:(r + 1) ~zone:z
                     ~energy:res.Solver.energy ~bound:res.Solver.lower_bound
                     ~iterations:res.Solver.iterations
                     ~converged:res.Solver.converged
                 done;
                 Recorder.boundary ~round:(r + 1) ~disagree:!disagree
                   ~edge_bound:!eb ~zone_bound:!zb ~step:step_r;
                 Recorder.sweep ~iter:(r + 1) ~energy:!best_energy
                   ~bound:!best_bound
                   ~residual:
                     (Float.max
                        (prev_energy -. !best_energy)
                        (!best_bound -. prev_bound))
                   ~msg_potts:0 ~msg_sparse:0 ~msg_generic:0
               end;
               on_progress ~iter:(r + 1) ~energy:!best_energy
                 ~bound:!best_bound;
               if
                 !disagree = 0
                 && Array.for_all (fun r -> r.Solver.converged) results
               then begin
                 converged := true;
                 raise Exit
               end;
               if !best_energy -. !best_bound < config.tolerance then begin
                 converged := true;
                 raise Exit
               end
             done
           with Exit -> ());
          (* interrupted before the first round: the all-zero labeling
             is the anytime answer, so report its energy *)
          if !iters = 0 then best_energy := Mrf.energy mrf best_x;
          (best_x, !best_energy, !best_bound, !iters, !converged))
    in
    let (labeling, energy, lb, iterations, converged), runtime_s =
      Solver.timed (fun () -> Obs.span ~name:"trws.zoned" run)
    in
    {
      Solver.labeling;
      energy;
      lower_bound = lb;
      iterations;
      converged;
      runtime_s;
    }
  end

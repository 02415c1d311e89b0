(* Reference TRW-S for the differential tests of [Netdiv_mrf.Trws].

   This is the solver as it was before the interleaved message layout,
   kept verbatim in behaviour: two message slabs ([fw] into an edge's v
   end, [bw] into its u end) addressed through per-edge offset arrays,
   every pass reaching an edge's endpoints, table and offsets through
   edge-indexed arrays, per-node cons lists to pair each node's lower and
   higher edges into monotonic chains, one boxed array per chain, and a
   separate aggregate pass at the start of every bound evaluation.  It
   is the specification of the arithmetic: each aggregate is the unary
   plus the incoming messages in incidence order; each chain DP step
   adds [(dp - msg into low end) + pot - msg into high end]; chain
   minima are summed in descending order of each chain's first edge,
   then the isolated nodes' unary minima in descending node order.  The
   library must return the same labeling, the same energy and bound
   bits, the same iteration count, the same [converged] flag and the
   same progress trace.

   [solve_zoned] is the zone decomposition of the same revision for an
   explicit [zone_of] map, with the zones solved in sequence on the
   calling domain (the library's result does not depend on the job
   count).  Neither solver bumps telemetry or records frames. *)

open Netdiv_mrf
open Kernel

type state = {
  labels : int array;
  unary_off : int array;
  unary : floatarray;
  eu : int array;
  ev : int array;
  etab : int array;
  pot_off : int array;
  pot : float array;
  inc_off : int array;
  inc : int array;
  fw_off : int array;
  bw_off : int array;
  fw : floatarray;
  bw : floatarray;
  classes : Kernel.t array;
  lb_agg : floatarray;
  gamma : float array;
  chains : int array array;
  isolated : int list;
}

type workspace = {
  theta : floatarray;
  ks : Kernel.scratch;
  dp : floatarray;
  dp' : floatarray;
}

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
  let fw_off = Array.make (m + 1) 0 and bw_off = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    fw_off.(e + 1) <- fw_off.(e) + labels.(ev.(e));
    bw_off.(e + 1) <- bw_off.(e) + labels.(eu.(e))
  done;
  let gamma = Array.make n 1.0 in
  let backward = Array.make n [] and forward = Array.make n [] in
  for i = 0 to n - 1 do
    let lower = ref 0 and higher = ref 0 in
    for k = inc_off.(i + 1) - 1 downto inc_off.(i) do
      let e = inc.(k) lsr 1 in
      let j = col.(k) in
      if j < i then begin
        incr lower;
        backward.(i) <- e :: backward.(i)
      end
      else begin
        incr higher;
        forward.(i) <- e :: forward.(i)
      end
    done;
    gamma.(i) <- 1.0 /. float_of_int (max 1 (max !lower !higher))
  done;
  let succ = Array.make m (-1) in
  let has_pred = Array.make m false in
  for i = 0 to n - 1 do
    let rec pair lows highs =
      match (lows, highs) with
      | e :: lows', e' :: highs' ->
          succ.(e) <- e';
          has_pred.(e') <- true;
          pair lows' highs'
      | _ -> ()
    in
    pair backward.(i) forward.(i)
  done;
  let chains = ref [] in
  for e = 0 to m - 1 do
    if not has_pred.(e) then begin
      let rec walk e acc =
        let acc = e :: acc in
        if succ.(e) >= 0 then walk succ.(e) acc else acc
      in
      chains := Array.of_list (List.rev (walk e [])) :: !chains
    end
  done;
  let chains = Array.of_list !chains in
  let isolated = ref [] in
  for i = 0 to n - 1 do
    if inc_off.(i + 1) = inc_off.(i) then isolated := i :: !isolated
  done;
  {
    labels;
    unary_off;
    unary = Float.Array.init unary_off.(n) (fun k -> unary.(k));
    eu;
    ev;
    etab;
    pot_off;
    pot;
    inc_off;
    inc;
    fw_off;
    bw_off;
    fw = Float.Array.make fw_off.(m) 0.0;
    bw = Float.Array.make bw_off.(m) 0.0;
    classes;
    lb_agg = Float.Array.make unary_off.(n) 0.0;
    gamma;
    chains;
    isolated = !isolated;
  }

let make_workspace st =
  let kmax = Array.fold_left max 1 st.labels in
  {
    theta = Float.Array.make kmax 0.0;
    ks = Kernel.make_scratch ~max_labels:kmax;
    dp = Float.Array.make kmax 0.0;
    dp' = Float.Array.make kmax 0.0;
  }

let aggregate st i (theta : floatarray) =
  let k = st.labels.(i) in
  let u0 = st.unary_off.(i) in
  for x = 0 to k - 1 do
    theta.%(x) <- st.unary.%(u0 + x)
  done;
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let code = st.inc.(p) in
    let e = code / 2 in
    let bwd = code land 1 = 1 in
    let off = if bwd then st.bw_off.(e) else st.fw_off.(e) in
    let msg = if bwd then st.bw else st.fw in
    for x = 0 to k - 1 do
      theta.%(x) <- theta.%(x) +. msg.%(off + x)
    done
  done

let process_node st ws ~forward i =
  let theta = ws.theta in
  aggregate st i theta;
  let k = st.labels.(i) in
  let g = st.gamma.(i) in
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let code = st.inc.(p) in
    let e = code / 2 in
    let i_is_u = code land 1 = 1 in
    let j = if i_is_u then st.ev.(e) else st.eu.(e) in
    if if forward then j > i else j < i then begin
      let kj = st.labels.(j) in
      let p0 = st.pot_off.(st.etab.(e)) in
      let in_off = if i_is_u then st.bw_off.(e) else st.fw_off.(e) in
      let in_msg = if i_is_u then st.bw else st.fw in
      let out_off = if i_is_u then st.fw_off.(e) else st.bw_off.(e) in
      let out_msg = if i_is_u then st.fw else st.bw in
      let h = ws.ks.Kernel.h in
      for xi = 0 to k - 1 do
        h.%(xi) <- (g *. theta.%(xi)) -. in_msg.%(in_off + xi)
      done;
      let vmin =
        Kernel.update
          st.classes.(st.etab.(e))
          ~pot:st.pot ~p0 ~src_is_u:i_is_u ~k_src:k ~k_out:kj ~scratch:ws.ks
          ~out:out_msg ~out_off
      in
      for xj = 0 to kj - 1 do
        out_msg.%(out_off + xj) <- out_msg.%(out_off + xj) -. vmin
      done
    end
  done

let sweep st ws n forward =
  if forward then
    for i = 0 to n - 1 do
      process_node st ws ~forward:true i
    done
  else
    for i = n - 1 downto 0 do
      process_node st ws ~forward:false i
    done

let chain_dp st ws ci =
  let chain = st.chains.(ci) in
  let agg = st.lb_agg in
  let dp = ws.dp in
  let dp' = ws.dp' in
  let e0 = chain.(0) in
  let first = if st.eu.(e0) < st.ev.(e0) then st.eu.(e0) else st.ev.(e0) in
  let k0 = st.labels.(first) in
  for x = 0 to k0 - 1 do
    dp.%(x) <- agg.%(st.unary_off.(first) + x)
  done;
  let prev_k = ref k0 in
  Array.iter
    (fun e ->
      let u = st.eu.(e) and v = st.ev.(e) in
      let kv = st.labels.(v) in
      let pbase = st.pot_off.(st.etab.(e)) in
      let fw0 = st.fw_off.(e) and bw0 = st.bw_off.(e) in
      let hi = if u < v then v else u in
      let kh = st.labels.(hi) in
      for y = 0 to kh - 1 do
        dp'.%(y) <- infinity
      done;
      if u < v then
        for x = 0 to !prev_k - 1 do
          let base = dp.%(x) -. st.bw.%(bw0 + x) in
          let prow = pbase + (x * kv) in
          for y = 0 to kh - 1 do
            let c = base +. st.pot.(prow + y) -. st.fw.%(fw0 + y) in
            if c < dp'.%(y) then dp'.%(y) <- c
          done
        done
      else
        for x = 0 to !prev_k - 1 do
          let base = dp.%(x) -. st.fw.%(fw0 + x) in
          for y = 0 to kh - 1 do
            let c =
              base +. st.pot.(pbase + (y * kv) + x) -. st.bw.%(bw0 + y)
            in
            if c < dp'.%(y) then dp'.%(y) <- c
          done
        done;
      let hoff = st.unary_off.(hi) in
      for y = 0 to kh - 1 do
        dp'.%(y) <- dp'.%(y) +. agg.%(hoff + y)
      done;
      Float.Array.blit dp' 0 dp 0 kh;
      prev_k := kh)
    chain;
  !prev_k

let lower_bound st ws n =
  for i = 0 to n - 1 do
    aggregate st i ws.theta;
    let off = st.unary_off.(i) in
    for x = 0 to st.labels.(i) - 1 do
      st.lb_agg.%(off + x) <- st.gamma.(i) *. ws.theta.%(x)
    done
  done;
  let acc = ref 0.0 in
  for ci = 0 to Array.length st.chains - 1 do
    let k = chain_dp st ws ci in
    let best = ref infinity in
    for x = 0 to k - 1 do
      if ws.dp.%(x) < !best then best := ws.dp.%(x)
    done;
    acc := !acc +. !best
  done;
  List.iter
    (fun i ->
      let best = ref infinity in
      for x = 0 to st.labels.(i) - 1 do
        let c = st.unary.%(st.unary_off.(i) + x) in
        if c < !best then best := c
      done;
      acc := !acc +. !best)
    st.isolated;
  !acc

let decode st ws n x =
  let theta = ws.theta in
  for i = 0 to n - 1 do
    let k = st.labels.(i) in
    let u0 = st.unary_off.(i) in
    for xi = 0 to k - 1 do
      theta.%(xi) <- st.unary.%(u0 + xi)
    done;
    for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
      let code = st.inc.(p) in
      let e = code / 2 in
      let i_is_u = code land 1 = 1 in
      let j = if i_is_u then st.ev.(e) else st.eu.(e) in
      if j < i then begin
        let p0 = st.pot_off.(st.etab.(e)) in
        let kj = st.labels.(j) in
        for xi = 0 to k - 1 do
          let pair =
            if i_is_u then st.pot.(p0 + (xi * kj) + x.(j))
            else st.pot.(p0 + (x.(j) * k) + xi)
          in
          theta.%(xi) <- theta.%(xi) +. pair
        done
      end
      else begin
        let off = if i_is_u then st.bw_off.(e) else st.fw_off.(e) in
        let msg = if i_is_u then st.bw else st.fw in
        for xi = 0 to k - 1 do
          theta.%(xi) <- theta.%(xi) +. msg.%(off + xi)
        done
      end
    done;
    let best = ref 0 in
    for xi = 1 to k - 1 do
      if theta.%(xi) < theta.%(!best) then best := xi
    done;
    x.(i) <- !best
  done

let run_loop ~(config : Trws.config) ~interrupt ~on_progress mrf st ws n =
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
       sweep st ws n true;
       sweep st ws n false;
       if it mod config.bound_every = 0 || it = config.max_iters then begin
         let lb = lower_bound st ws n in
         decode st ws n x;
         let e = Mrf.energy mrf x in
         if e < !best_energy then begin
           best_energy := e;
           Array.blit x 0 best_x 0 n
         end;
         let bound_progress = lb -. !best_bound in
         if lb > !best_bound then best_bound := lb;
         let energy_progress = !prev_energy -. !best_energy in
         prev_energy := !best_energy;
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
  (best_x, !best_energy, !best_bound, !iters, !converged)

let result (labeling, energy, lower_bound, iterations, converged) =
  {
    Solver.labeling;
    energy;
    lower_bound;
    iterations;
    converged;
    runtime_s = 0.0;
  }

let solve ?(config = Trws.default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) mrf =
  let st = make_state mrf in
  let ws = make_workspace st in
  result
    (run_loop ~config ~interrupt ~on_progress mrf st ws (Mrf.n_nodes mrf))

let solve_zoned ?(config = Trws.default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) ~zone_of ~rounds
    ~step mrf =
  let n = Mrf.n_nodes mrf and m = Mrf.n_edges mrf in
  let dense = Array.make (max 1 n) 0 in
  let id_of = Hashtbl.create 16 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    dense.(i) <-
      (match Hashtbl.find_opt id_of zone_of.(i) with
      | Some id -> id
      | None ->
          let id = !next in
          incr next;
          Hashtbl.add id_of zone_of.(i) id;
          id)
  done;
  let zone_of = dense and nz = max 1 !next in
  if nz <= 1 then solve ~config ~interrupt ~on_progress mrf
  else begin
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
              (Array.init sizes.(z) (fun li -> g_labels.(nodes.(z).(li)))))
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
    let nb = ref 0 in
    for e = 0 to m - 1 do
      if zone_of.(g_eu.(e)) <> zone_of.(g_ev.(e)) then incr nb
    done;
    let nb = !nb in
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
    let base =
      Array.map (fun s -> (Mrf.Compact.arrays s).Mrf.Compact.i_unary) subs
    in
    let eff = Array.map Array.copy base in
    let wrapped = Array.init nz (fun z -> Mrf.with_unaries subs.(z) eff.(z)) in
    let sub_uoff =
      Array.map (fun s -> (Mrf.Compact.arrays s).Mrf.Compact.i_unary_off) subs
    in
    let lam_off = Array.make (nb + 1) 0 in
    for bi = 0 to nb - 1 do
      let e = be.(bi) in
      lam_off.(bi + 1) <- lam_off.(bi) + g_labels.(g_eu.(e)) + g_labels.(g_ev.(e))
    done;
    let lam = Array.make (max 1 lam_off.(nb)) 0.0 in
    let xhat = Array.make n 0 in
    let best_x = Array.make n 0 in
    let best_energy = ref infinity in
    let best_bound = ref neg_infinity in
    let iters = ref 0 in
    let converged = ref false in
    (try
       for r = 0 to rounds - 1 do
         if interrupt () then raise Exit;
         iters := r + 1;
         Array.iteri (fun z b -> Array.blit b 0 eff.(z) 0 (Array.length b)) base;
         for bi = 0 to nb - 1 do
           let e = be.(bi) in
           let u = g_eu.(e) and v = g_ev.(e) in
           let lo = lam_off.(bi) in
           let ku = g_labels.(u) and kv = g_labels.(v) in
           let zu = zone_of.(u) and zv = zone_of.(v) in
           let uo = sub_uoff.(zu).(local.(u)) and vo = sub_uoff.(zv).(local.(v)) in
           for l = 0 to ku - 1 do
             eff.(zu).(uo + l) <- eff.(zu).(uo + l) +. lam.(lo + l)
           done;
           for l = 0 to kv - 1 do
             eff.(zv).(vo + l) <- eff.(zv).(vo + l) +. lam.(lo + ku + l)
           done
         done;
         let results = Array.map (fun w -> solve ~config ~interrupt w) wrapped in
         for z = 0 to nz - 1 do
           let ns = nodes.(z) in
           for li = 0 to sizes.(z) - 1 do
             xhat.(ns.(li)) <- results.(z).Solver.labeling.(li)
           done
         done;
         let zb = ref 0.0 in
         for z = 0 to nz - 1 do
           zb := !zb +. results.(z).Solver.lower_bound
         done;
         let eb = ref 0.0 in
         let disagree = ref 0 in
         let step_r = step /. float_of_int (r + 1) in
         for bi = 0 to nb - 1 do
           let e = be.(bi) in
           let u = g_eu.(e) and v = g_ev.(e) in
           let lo = lam_off.(bi) in
           let ku = g_labels.(u) and kv = g_labels.(v) in
           let p0 = g_pot_off.(g_etab.(e)) in
           let sl_best = ref infinity and sl_bu = ref 0 and sl_bv = ref 0 in
           for xu = 0 to ku - 1 do
             for xv = 0 to kv - 1 do
               let c =
                 g_pot.(p0 + (xu * kv) + xv) -. lam.(lo + xu)
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
           let xu = xhat.(u) and xv = xhat.(v) in
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
         let lb = !zb +. !eb in
         if lb > !best_bound then best_bound := lb;
         let e = Mrf.energy mrf xhat in
         if e < !best_energy then begin
           best_energy := e;
           Array.blit xhat 0 best_x 0 n
         end;
         on_progress ~iter:(r + 1) ~energy:!best_energy ~bound:!best_bound;
         if
           !disagree = 0 && Array.for_all (fun r -> r.Solver.converged) results
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
    if !iters = 0 then best_energy := Mrf.energy mrf best_x;
    result (best_x, !best_energy, !best_bound, !iters, !converged)
  end

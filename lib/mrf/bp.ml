module Obs = Netdiv_obs.Obs
module Recorder = Netdiv_obs.Recorder
open Kernel

(* Same registry names as Trws: the counters classify message updates
   by kernel class whatever solver issued them. *)
let c_msg_potts = Obs.Counter.make "mrf.messages.potts"
let c_msg_sparse = Obs.Counter.make "mrf.messages.const_sparse"
let c_msg_generic = Obs.Counter.make "mrf.messages.generic"

type config = {
  max_iters : int;
  tolerance : float;
  damping : float;
  init_noise : float;
}

let default_config =
  { max_iters = 100; tolerance = 1e-7; damping = 0.3; init_noise = 1e-4 }

(* Message slabs and read-only topology; per-solve mutable scratch
   lives in {!workspace}. *)
type state = {
  labels : int array;
  unary_off : int array;
  unary : floatarray;  (* unboxed copy of the model's unaries *)
  eu : int array;
  ev : int array;
  etab : int array;
  pot_off : int array;
  pot : float array;
  inc_off : int array;
  inc : int array;
  fw_off : int array;
  bw_off : int array;
  fw : floatarray;  (* message into v of each edge *)
  bw : floatarray;  (* message into u of each edge *)
  classes : Kernel.t array;
}

(* [delta] is a one-slot slab holding the sweep's largest absolute
   message change so far: an unboxed store, where a returned or
   ref-held float would box once per node. *)
type workspace = {
  theta : floatarray;
  ks : Kernel.scratch;
  delta : floatarray;
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
    i_col = _;
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
  }

let make_workspace st =
  let kmax = Array.fold_left max 1 st.labels in
  {
    theta = Float.Array.make kmax 0.0;
    ks = Kernel.make_scratch ~max_labels:kmax;
    delta = Float.Array.make 1 0.0;
  }

(* break ties deterministically: symmetric models otherwise sit on the
   all-zero-message fixed point and decode to a mono labeling *)
let init_messages st config =
  if config.init_noise > 0.0 then begin
    let rng = Random.State.make [| 0x5bf0 |] in
    for i = 0 to Float.Array.length st.fw - 1 do
      st.fw.%(i) <- Random.State.float rng config.init_noise
    done;
    for i = 0 to Float.Array.length st.bw - 1 do
      st.bw.%(i) <- Random.State.float rng config.init_noise
    done
  end

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

(* Update every directed message out of node [i] and fold its largest
   absolute change into the sweep's running maximum [ws.delta]. *)
let update_node st ws damping i =
  let theta = ws.theta in
  aggregate st i theta;
  let k = st.labels.(i) in
  let dmax = ref 0.0 in
  for p = st.inc_off.(i) to st.inc_off.(i + 1) - 1 do
    let code = st.inc.(p) in
    let e = code / 2 in
    let i_is_u = code land 1 = 1 in
    let j = if i_is_u then st.ev.(e) else st.eu.(e) in
    let kj = st.labels.(j) in
    let p0 = st.pot_off.(st.etab.(e)) in
    let in_off = if i_is_u then st.bw_off.(e) else st.fw_off.(e) in
    let in_msg = if i_is_u then st.bw else st.fw in
    let out_off = if i_is_u then st.fw_off.(e) else st.bw_off.(e) in
    let out_msg = if i_is_u then st.fw else st.bw in
    (* reduction input, precomputed once per message; the kernel stages
       its raw output in the preallocated [scratch.fresh] buffer (no
       per-message allocation) so the damping blend below can mix it
       with the previous message value. *)
    let h = ws.ks.Kernel.h in
    for xi = 0 to k - 1 do
      h.%(xi) <- theta.%(xi) -. in_msg.%(in_off + xi)
    done;
    let fresh = ws.ks.Kernel.fresh in
    let vmin =
      Kernel.update
        st.classes.(st.etab.(e))
        ~pot:st.pot ~p0 ~src_is_u:i_is_u ~k_src:k ~k_out:kj ~scratch:ws.ks
        ~out:fresh ~out_off:0
    in
    for xj = 0 to kj - 1 do
      let updated =
        ((1.0 -. damping) *. (fresh.%(xj) -. vmin))
        +. (damping *. out_msg.%(out_off + xj))
      in
      let change = abs_float (updated -. out_msg.%(out_off + xj)) in
      if change > !dmax then dmax := change;
      out_msg.%(out_off + xj) <- updated
    done
  done;
  if !dmax > ws.delta.%(0) then ws.delta.%(0) <- !dmax

(* One sequential sweep updating every directed message once; returns the
   largest absolute message change. *)
let sweep st ws n damping =
  ws.delta.%(0) <- 0.0;
  for i = 0 to n - 1 do
    update_node st ws damping i
  done;
  ws.delta.%(0)

(* Directed messages one BP sweep updates, by kernel class: every node
   sends along each incident edge, so each edge counts twice.  Flushed
   as one counter add per class per sweep. *)
let count_messages st m =
  let potts = ref 0 and sparse = ref 0 and generic = ref 0 in
  for e = 0 to m - 1 do
    match st.classes.(st.etab.(e)) with
    | Kernel.Potts _ -> potts := !potts + 2
    | Kernel.Const_sparse _ -> sparse := !sparse + 2
    | Kernel.Generic -> generic := !generic + 2
  done;
  (!potts, !sparse, !generic)

let decode st ws n x =
  let theta = ws.theta in
  for i = 0 to n - 1 do
    aggregate st i theta;
    let best = ref 0 in
    for xi = 1 to st.labels.(i) - 1 do
      if theta.%(xi) < theta.%(!best) then best := xi
    done;
    x.(i) <- !best
  done

(* The iteration loop: sweeps, decoding, convergence, telemetry. *)
let run_loop ~config ~interrupt ~on_progress mrf st ws n =
  let obs_on = Obs.enabled () in
  let rec_on = Recorder.installed () in
  let msg_potts, msg_sparse, msg_generic =
    if obs_on || rec_on then count_messages st (Mrf.n_edges mrf)
    else (0, 0, 0)
  in
  let x = Array.make n 0 in
  let best_x = Array.make n 0 in
  decode st ws n best_x;
  let best_energy = ref (Mrf.energy mrf best_x) in
  let iters = ref 0 in
  let converged = ref false in
  (try
     for it = 1 to config.max_iters do
       if interrupt () then raise Exit;
       iters := it;
       Obs.begin_span "bp.sweep";
       let delta = sweep st ws n config.damping in
       decode st ws n x;
       Obs.end_span "bp.sweep";
       if obs_on then begin
         Obs.Counter.add c_msg_potts msg_potts;
         Obs.Counter.add c_msg_sparse msg_sparse;
         Obs.Counter.add c_msg_generic msg_generic
       end;
       let e = Mrf.energy mrf x in
       if e < !best_energy then begin
         best_energy := e;
         Array.blit x 0 best_x 0 n
       end;
       Obs.sample ~name:"bp.energy" !best_energy;
       Obs.sample ~name:"bp.delta" delta;
       if rec_on then
         Recorder.sweep ~iter:it ~energy:!best_energy ~bound:neg_infinity
           ~residual:delta ~msg_potts ~msg_sparse ~msg_generic;
       on_progress ~iter:it ~energy:!best_energy ~bound:neg_infinity;
       if delta < config.tolerance then begin
         converged := true;
         raise Exit
       end
     done
   with Exit -> ());
  if obs_on then begin
    (* per-solve message totals as samples — the exported trace carries
       the kernel-class mix for the report's throughput table *)
    Obs.sample ~name:"mrf.messages.potts"
      (float_of_int (msg_potts * !iters));
    Obs.sample ~name:"mrf.messages.const_sparse"
      (float_of_int (msg_sparse * !iters));
    Obs.sample ~name:"mrf.messages.generic"
      (float_of_int (msg_generic * !iters))
  end;
  (best_x, !best_energy, !iters, !converged)

let solve ?(config = default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) mrf =
  let run () =
    let st = make_state mrf in
    init_messages st config;
    let ws = make_workspace st in
    let n = Mrf.n_nodes mrf in
    run_loop ~config ~interrupt ~on_progress mrf st ws n
  in
  let (labeling, energy, iterations, converged), runtime_s =
    Solver.timed (fun () -> Obs.span ~name:"bp.solve" run)
  in
  {
    Solver.labeling;
    energy;
    lower_bound = neg_infinity;
    iterations;
    converged;
    runtime_s;
  }

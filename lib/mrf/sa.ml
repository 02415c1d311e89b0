module Obs = Netdiv_obs.Obs
module Recorder = Netdiv_obs.Recorder

(* Acceptance telemetry: proposals and accepted moves are tallied in
   plain local ints inside each restart (restarts may run on pool
   domains) and flushed with one atomic add per restart, so the flip
   loop itself carries no shared-state traffic. *)
let c_proposals = Obs.Counter.make "sa.proposals"
let c_accepts = Obs.Counter.make "sa.accepts"

type config = {
  initial_temp : float;
  cooling : float;
  min_temp : float;
  sweeps_per_temp : int;
  restarts : int;
  seed : int;
  domains : int;
}

let default_config =
  {
    initial_temp = 2.0;
    cooling = 0.9;
    min_temp = 1e-3;
    sweeps_per_temp = 4;
    restarts = 2;
    seed = 0x5ead;
    domains = 1;
  }

let solve ?(config = default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) ?init mrf =
  if not (config.cooling > 0.0 && config.cooling < 1.0) then
    invalid_arg "Sa.solve: cooling must lie in (0,1)";
  (* progress callbacks touch caller state, so only fire them when the
     restarts run on this domain *)
  let sequential = config.domains <= 1 || config.restarts <= 1 in
  let run () =
    let {
      Mrf.Compact.i_labels = labels;
      i_unary_off = unary_off;
      i_unary = unary;
      i_etab = etab;
      i_pot_off = pot_off;
      i_pot = pot;
      i_inc_off = inc_off;
      i_inc = inc;
      i_col = col;
      _;
    } =
      Mrf.Compact.arrays mrf
    in
    let n = Mrf.n_nodes mrf in
    let start =
      match init with
      | Some x0 ->
          Mrf.validate_labeling mrf x0;
          Array.copy x0
      | None -> Icm.greedy_unary_init mrf
    in
    (* Energy delta of moving node i from its label to [fresh], one walk
       over i's CSR incidence row.  Each edge contributes
       [(delta +. c_fresh) -. c_cur], in incidence order.  Inlined into
       the flip loop so the float result is not boxed per proposal. *)
    let[@inline] move_delta x i fresh =
      let current = x.(i) in
      if fresh = current then 0.0
      else begin
        let uo = unary_off.(i) in
        let delta = ref (unary.(uo + fresh) -. unary.(uo + current)) in
        for slot = inc_off.(i) to inc_off.(i + 1) - 1 do
          let code = inc.(slot) in
          let j = col.(slot) in
          let base = pot_off.(etab.(code lsr 1)) in
          if code land 1 = 1 then begin
            (* i is the u side: entry xi * k_j + x_j *)
            let kj = labels.(j) and xj = x.(j) in
            delta :=
              !delta
              +. pot.(base + (fresh * kj) + xj)
              -. pot.(base + (current * kj) + xj)
          end
          else begin
            (* i is the v side: entry x_j * k_i + xi *)
            let row = base + (x.(j) * labels.(i)) in
            delta := !delta +. pot.(row + fresh) -. pot.(row + current)
          end
        done;
        !delta
      end
    in
    (* one independent annealing run; deterministic in its restart index *)
    let one_restart restart =
      let rng = Random.State.make [| config.seed; restart |] in
      let x = Array.copy start in
      let energy = ref (Mrf.energy mrf x) in
      let local_best = Array.copy start in
      let local_best_energy = ref !energy in
      let sweeps = ref 0 in
      let stopped = ref false in
      let temp = ref config.initial_temp in
      let proposals = ref 0 in
      let accepts = ref 0 in
      (try
         while !temp > config.min_temp do
           for _ = 1 to config.sweeps_per_temp do
             if interrupt () then begin
               stopped := true;
               raise Exit
             end;
             incr sweeps;
             for i = 0 to n - 1 do
               let k = labels.(i) in
               if k > 1 then begin
                 let fresh = Random.State.int rng k in
                 let delta = move_delta x i fresh in
                 incr proposals;
                 if
                   delta <= 0.0
                   || Random.State.float rng 1.0 < exp (-.delta /. !temp)
                 then begin
                   incr accepts;
                   x.(i) <- fresh;
                   energy := !energy +. delta;
                   if !energy < !local_best_energy then begin
                     local_best_energy := !energy;
                     Array.blit x 0 local_best 0 n
                   end
                 end
               end
             done
           done;
           if sequential then begin
             (* the flight recorder shares the progress callback's
                gating: parallel restarts run on pool workers, whose
                completion order must not reach caller state *)
             Recorder.sweep ~iter:!sweeps ~energy:!local_best_energy
               ~bound:neg_infinity ~residual:!temp ~msg_potts:0 ~msg_sparse:0
               ~msg_generic:0;
             on_progress ~iter:!sweeps ~energy:!local_best_energy
               ~bound:neg_infinity
           end;
           temp := !temp *. config.cooling
         done
       with Exit -> ());
      Obs.Counter.add c_proposals !proposals;
      Obs.Counter.add c_accepts !accepts;
      (local_best, !local_best_energy, !sweeps, !stopped)
    in
    let results =
      if sequential then List.init config.restarts one_restart
      else
        (* each restart owns its rng (seeded by restart index) and the
           pool returns results in restart order, so the outcome is
           identical for any domain count — including the sequential
           path above *)
        (* granularity hint: temperature steps × sweeps × per-sweep
           flip cost (one move_delta over each node's incident edges) *)
        let temps =
          int_of_float
            (Float.max 1.0
               (ceil
                  (log (config.min_temp /. config.initial_temp)
                  /. log config.cooling)))
        in
        let per_sweep = n + (8 * Mrf.n_edges mrf) in
        let cost = temps * config.sweeps_per_temp * per_sweep in
        Array.to_list
          (Netdiv_par.Pool.map_range ~jobs:config.domains ~cost ~lo:0
             ~hi:config.restarts one_restart)
    in
    let best = Array.copy start in
    let best_energy = ref (Mrf.energy mrf start) in
    let sweeps = ref 0 in
    let stopped = ref false in
    List.iter
      (fun (x, e, s, st) ->
        sweeps := !sweeps + s;
        if st then stopped := true;
        if e < !best_energy then begin
          best_energy := e;
          Array.blit x 0 best 0 n
        end)
      results;
    (* guard against float drift in the incremental energy *)
    let true_best = Mrf.energy mrf best in
    (best, true_best, !sweeps, not !stopped)
  in
  let (labeling, energy, iterations, converged), runtime_s =
    Solver.timed (fun () -> Obs.span ~name:"sa.solve" run)
  in
  {
    Solver.labeling;
    energy;
    lower_bound = neg_infinity;
    iterations;
    converged;
    runtime_s;
  }

module Obs = Netdiv_obs.Obs
module Recorder = Netdiv_obs.Recorder

type config = { max_sweeps : int }

let default_config = { max_sweeps = 100 }

let greedy_unary_init mrf =
  Array.init (Mrf.n_nodes mrf) (fun i ->
      let k = Mrf.label_count mrf i in
      let best = ref 0 in
      for l = 1 to k - 1 do
        if
          Mrf.unary mrf ~node:i ~label:l
          < Mrf.unary mrf ~node:i ~label:!best
        then best := l
      done;
      !best)

let solve ?(config = default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) ?init mrf =
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
    let x =
      match init with
      | Some x0 ->
          Mrf.validate_labeling mrf x0;
          Array.copy x0
      | None -> greedy_unary_init mrf
    in
    (* Conditional cost of every label of the node being visited, filled
       in one pass over its incidence row.  Each entry is summed unary
       first, then the edges in incidence order; that order and the
       tie-break below are the bitwise contract of DESIGN.md "Primal
       local-search kernel". *)
    let cost = Array.make (Mrf.max_label_count mrf) 0.0 in
    (* one flight-recorder frame per sweep, as SA records one per
       cooling stage; its residual is the sweep's energy gain, so the
       energy before the first sweep is needed only when recording *)
    let rec_on = Recorder.installed () in
    let prev_energy = ref (if rec_on then Mrf.energy mrf x else nan) in
    let sweeps = ref 0 in
    let converged = ref false in
    (try
       for s = 1 to config.max_sweeps do
         if interrupt () then raise Exit;
         sweeps := s;
         let changed = ref false in
         for i = 0 to n - 1 do
           let k = labels.(i) in
           Array.blit unary unary_off.(i) cost 0 k;
           for slot = inc_off.(i) to inc_off.(i + 1) - 1 do
             let code = inc.(slot) in
             let j = col.(slot) in
             let xj = x.(j) in
             let base = pot_off.(etab.(code lsr 1)) in
             if code land 1 = 1 then begin
               (* i is the u side: entry xi * k_j + x_j *)
               let kj = labels.(j) in
               for l = 0 to k - 1 do
                 cost.(l) <- cost.(l) +. pot.(base + (l * kj) + xj)
               done
             end
             else begin
               (* i is the v side: entry x_j * k_i + xi *)
               let row = base + (xj * k) in
               for l = 0 to k - 1 do
                 cost.(l) <- cost.(l) +. pot.(row + l)
               done
             end
           done;
           (* the current label is the incumbent; a move needs a strictly
              lower cost, earlier labels winning ties *)
           let xi = x.(i) in
           let best = ref xi in
           let best_cost = ref cost.(xi) in
           for l = 0 to k - 1 do
             if l <> xi && cost.(l) < !best_cost then begin
               best_cost := cost.(l);
               best := l
             end
           done;
           if !best <> xi then begin
             x.(i) <- !best;
             changed := true
           end
         done;
         let energy = Mrf.energy mrf x in
         if rec_on then begin
           Recorder.sweep ~iter:s ~energy ~bound:neg_infinity
             ~residual:(!prev_energy -. energy) ~msg_potts:0 ~msg_sparse:0
             ~msg_generic:0;
           prev_energy := energy
         end;
         on_progress ~iter:s ~energy ~bound:neg_infinity;
         if not !changed then begin
           converged := true;
           raise Exit
         end
       done
     with Exit -> ());
    (x, !sweeps, !converged)
  in
  let (labeling, iterations, converged), runtime_s =
    Solver.timed (fun () -> Obs.span ~name:"icm.solve" run)
  in
  {
    Solver.labeling;
    energy = Mrf.energy mrf labeling;
    lower_bound = neg_infinity;
    iterations;
    converged;
    runtime_s;
  }

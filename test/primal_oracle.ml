(* Reference primal solvers for the differential tests of
   [Netdiv_mrf.Icm], [Netdiv_mrf.Sa] and [Netdiv_mrf.Bnb].

   These are the solvers as they were before the CSR local-search
   kernel, kept verbatim in behaviour: every conditional cost is
   recomputed label by label from a per-node array of boxed
   [(edge, i_is_u)] incidences, with the opposite endpoint and the
   pairwise table looked up per edge.  They are slow and allocate per
   call, and they are the specification of the kernel's arithmetic:
   each label's cost is summed unary first, then edges in incidence
   order (sorted by opposite endpoint, then edge id); ICM keeps the
   current label unless another is strictly cheaper, lowest label
   first; an SA move's delta is accumulated as [(delta +. c_fresh) -.
   c_cur] per edge; B&B tries labels in increasing [(cost, label)]
   order.  The library solvers must return the same labeling, the same
   energy bits, the same iteration count and the same [converged] flag.

   The oracle SA always runs its restarts in sequence on the calling
   domain ([domains] is ignored — the library's result does not depend
   on it) and bumps no telemetry. *)

open Netdiv_mrf

(* [(edge, i_is_u)] per node, sorted by opposite endpoint then by the
   encoding [edge * 2 + (1 if i_is_u)], rebuilt from the edge list *)
let incidence mrf =
  let rows = Array.make (Mrf.n_nodes mrf) [] in
  for e = Mrf.n_edges mrf - 1 downto 0 do
    let u, v = Mrf.edge_endpoints mrf e in
    rows.(u) <- (v, e, true) :: rows.(u);
    rows.(v) <- (u, e, false) :: rows.(v)
  done;
  Array.map
    (fun row ->
      Array.of_list
        (List.map (fun (_, e, is_u) -> (e, is_u)) (List.sort compare row)))
    rows

let opposite mrf ~edge i =
  let u, v = Mrf.edge_endpoints mrf edge in
  if u = i then v else u

let greedy_unary_init mrf =
  Array.init (Mrf.n_nodes mrf) (fun i ->
      let k = Mrf.label_count mrf i in
      let best = ref 0 in
      for l = 1 to k - 1 do
        if Mrf.unary mrf ~node:i ~label:l < Mrf.unary mrf ~node:i ~label:!best
        then best := l
      done;
      !best)

module Icm = struct
  (* Cost of node i taking label xi given the rest of the labeling. *)
  let local_cost mrf inc x i xi =
    let acc = ref (Mrf.unary mrf ~node:i ~label:xi) in
    Array.iter
      (fun (e, i_is_u) ->
        let j = opposite mrf ~edge:e i in
        let pot = Mrf.edge_cost mrf e in
        let kj = Mrf.label_count mrf j in
        let ki = Mrf.label_count mrf i in
        let c =
          if i_is_u then pot.((xi * kj) + x.(j)) else pot.((x.(j) * ki) + xi)
        in
        acc := !acc +. c)
      inc.(i);
    !acc

  let solve ~(config : Netdiv_mrf.Icm.config) ?(interrupt = fun () -> false)
      ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) ?init mrf =
    let inc = incidence mrf in
    let n = Mrf.n_nodes mrf in
    let x =
      match init with
      | Some x0 ->
          Mrf.validate_labeling mrf x0;
          Array.copy x0
      | None -> greedy_unary_init mrf
    in
    let sweeps = ref 0 in
    let converged = ref false in
    (try
       for s = 1 to config.Netdiv_mrf.Icm.max_sweeps do
         if interrupt () then raise Exit;
         sweeps := s;
         let changed = ref false in
         for i = 0 to n - 1 do
           let k = Mrf.label_count mrf i in
           let best = ref x.(i) in
           let best_cost = ref (local_cost mrf inc x i x.(i)) in
           for xi = 0 to k - 1 do
             if xi <> x.(i) then begin
               let c = local_cost mrf inc x i xi in
               if c < !best_cost then begin
                 best_cost := c;
                 best := xi
               end
             end
           done;
           if !best <> x.(i) then begin
             x.(i) <- !best;
             changed := true
           end
         done;
         on_progress ~iter:s ~energy:(Mrf.energy mrf x) ~bound:neg_infinity;
         if not !changed then begin
           converged := true;
           raise Exit
         end
       done
     with Exit -> ());
    {
      Solver.labeling = x;
      energy = Mrf.energy mrf x;
      lower_bound = neg_infinity;
      iterations = !sweeps;
      converged = !converged;
      runtime_s = 0.0;
    }
end

module Sa = struct
  (* energy delta of moving node i to label [fresh], given labeling x *)
  let move_delta mrf inc x i fresh =
    let current = x.(i) in
    if fresh = current then 0.0
    else begin
      let delta =
        ref
          (Mrf.unary mrf ~node:i ~label:fresh
          -. Mrf.unary mrf ~node:i ~label:current)
      in
      Array.iter
        (fun (e, i_is_u) ->
          let j = opposite mrf ~edge:e i in
          let pot = Mrf.edge_cost mrf e in
          let ki = Mrf.label_count mrf i and kj = Mrf.label_count mrf j in
          let cost xi =
            if i_is_u then pot.((xi * kj) + x.(j)) else pot.((x.(j) * ki) + xi)
          in
          delta := !delta +. cost fresh -. cost current)
        inc.(i);
      !delta
    end

  let solve ~(config : Netdiv_mrf.Sa.config) ?(interrupt = fun () -> false)
      ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) ?init mrf =
    if not (config.cooling > 0.0 && config.cooling < 1.0) then
      invalid_arg "Sa.solve: cooling must lie in (0,1)";
    let inc = incidence mrf in
    let n = Mrf.n_nodes mrf in
    let start =
      match init with
      | Some x0 ->
          Mrf.validate_labeling mrf x0;
          Array.copy x0
      | None -> greedy_unary_init mrf
    in
    let one_restart restart =
      let rng = Random.State.make [| config.seed; restart |] in
      let x = Array.copy start in
      let energy = ref (Mrf.energy mrf x) in
      let local_best = Array.copy start in
      let local_best_energy = ref !energy in
      let sweeps = ref 0 in
      let stopped = ref false in
      let temp = ref config.initial_temp in
      (try
         while !temp > config.min_temp do
           for _ = 1 to config.sweeps_per_temp do
             if interrupt () then begin
               stopped := true;
               raise Exit
             end;
             incr sweeps;
             for i = 0 to n - 1 do
               let k = Mrf.label_count mrf i in
               if k > 1 then begin
                 let fresh = Random.State.int rng k in
                 let delta = move_delta mrf inc x i fresh in
                 if
                   delta <= 0.0
                   || Random.State.float rng 1.0 < exp (-.delta /. !temp)
                 then begin
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
           on_progress ~iter:!sweeps ~energy:!local_best_energy
             ~bound:neg_infinity;
           temp := !temp *. config.cooling
         done
       with Exit -> ());
      (local_best, !local_best_energy, !sweeps, !stopped)
    in
    let results = List.init config.restarts one_restart in
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
    {
      Solver.labeling = best;
      energy = Mrf.energy mrf best;
      lower_bound = neg_infinity;
      iterations = !sweeps;
      converged = not !stopped;
      runtime_s = 0.0;
    }
end

module Bnb = struct
  let connectivity_order mrf inc =
    let n = Mrf.n_nodes mrf in
    let order = Array.make n 0 in
    let placed = Array.make n false in
    let links_to_placed = Array.make n 0 in
    let degree i = Array.length inc.(i) in
    let pick k =
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if not placed.(i) then
          match !best with
          | -1 -> best := i
          | b ->
              let key i = (links_to_placed.(i), degree i) in
              if key i > key b then best := i
      done;
      let i = !best in
      placed.(i) <- true;
      order.(k) <- i;
      Array.iter
        (fun (e, _) ->
          let j = opposite mrf ~edge:e i in
          links_to_placed.(j) <- links_to_placed.(j) + 1)
        inc.(i)
    in
    for k = 0 to n - 1 do
      pick k
    done;
    order

  let solve ~(config : Netdiv_mrf.Bnb.config) ?(interrupt = fun () -> false)
      ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) mrf =
    let inc = incidence mrf in
    let n = Mrf.n_nodes mrf in
    let order = connectivity_order mrf inc in
    let warm = Trws.solve ~interrupt mrf in
    let polished =
      Icm.solve ~config:{ max_sweeps = 100 } ~interrupt
        ~init:warm.Solver.labeling mrf
    in
    let best_x = Array.copy polished.Solver.labeling in
    let best = ref polished.Solver.energy in
    let warm_bound = warm.Solver.lower_bound in
    let edge_min =
      Array.init (Mrf.n_edges mrf) (fun e ->
          Array.fold_left min infinity (Mrf.edge_cost mrf e))
    in
    let x = Array.make n 0 in
    let assigned = Array.make n false in
    let nodes = ref 0 in
    let complete = ref true in
    let remainder_bound () =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        if not assigned.(i) then begin
          let k = Mrf.label_count mrf i in
          let best_label = ref infinity in
          for l = 0 to k - 1 do
            let c = ref (Mrf.unary mrf ~node:i ~label:l) in
            Array.iter
              (fun (e, i_is_u) ->
                let j = opposite mrf ~edge:e i in
                if assigned.(j) then begin
                  let pot = Mrf.edge_cost mrf e in
                  let kj = Mrf.label_count mrf j in
                  let pair =
                    if i_is_u then pot.((l * kj) + x.(j))
                    else pot.((x.(j) * k) + l)
                  in
                  c := !c +. pair
                end)
              inc.(i);
            if !c < !best_label then best_label := !c
          done;
          acc := !acc +. !best_label
        end
      done;
      for e = 0 to Mrf.n_edges mrf - 1 do
        let u, v = Mrf.edge_endpoints mrf e in
        if (not assigned.(u)) && not assigned.(v) then
          acc := !acc +. edge_min.(e)
      done;
      !acc
    in
    let rec branch depth g =
      if !nodes >= config.Netdiv_mrf.Bnb.node_limit then complete := false
      else begin
        incr nodes;
        if interrupt () then begin
          complete := false;
          raise Exit
        end;
        if !nodes land 4095 = 0 then
          on_progress ~iter:!nodes ~energy:!best ~bound:warm_bound;
        if depth = n then begin
          if g < !best then begin
            best := g;
            Array.blit x 0 best_x 0 n
          end
        end
        else begin
          let i = order.(depth) in
          let k = Mrf.label_count mrf i in
          let local l =
            let c = ref (Mrf.unary mrf ~node:i ~label:l) in
            Array.iter
              (fun (e, i_is_u) ->
                let j = opposite mrf ~edge:e i in
                if assigned.(j) then begin
                  let pot = Mrf.edge_cost mrf e in
                  let kj = Mrf.label_count mrf j in
                  let pair =
                    if i_is_u then pot.((l * kj) + x.(j))
                    else pot.((x.(j) * k) + l)
                  in
                  c := !c +. pair
                end)
              inc.(i);
            !c
          in
          let costs = Array.init k (fun l -> (local l, l)) in
          Array.sort compare costs;
          Array.iter
            (fun (cost, l) ->
              let g' = g +. cost in
              if g' < !best -. 1e-12 then begin
                x.(i) <- l;
                assigned.(i) <- true;
                let bound = g' +. remainder_bound () in
                if bound < !best -. 1e-12 then branch (depth + 1) g';
                assigned.(i) <- false
              end)
            costs
        end
      end
    in
    (try branch 0 0.0 with Exit -> ());
    on_progress ~iter:!nodes ~energy:!best ~bound:warm_bound;
    {
      Solver.labeling = best_x;
      energy = !best;
      lower_bound = (if !complete then !best else warm_bound);
      iterations = !nodes;
      converged = !complete;
      runtime_s = 0.0;
    }
end

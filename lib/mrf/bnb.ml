module Obs = Netdiv_obs.Obs

type config = { node_limit : int }

let default_config = { node_limit = 2_000_000 }

(* variable order: greedy max-connectivity into the already-ordered set,
   seeded by the highest-degree node; ties go to the lowest id *)
let connectivity_order mrf =
  let { Mrf.Compact.i_inc_off = inc_off; i_col = col; _ } =
    Mrf.Compact.arrays mrf
  in
  let n = Mrf.n_nodes mrf in
  let order = Array.make n 0 in
  let placed = Array.make n false in
  let links_to_placed = Array.make n 0 in
  let degree i = inc_off.(i + 1) - inc_off.(i) in
  for k = 0 to n - 1 do
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if not placed.(i) then
        if !best < 0 then best := i
        else begin
          let b = !best in
          let li = links_to_placed.(i) and lb = links_to_placed.(b) in
          if li > lb || (li = lb && degree i > degree b) then best := i
        end
    done;
    let i = !best in
    placed.(i) <- true;
    order.(k) <- i;
    for slot = inc_off.(i) to inc_off.(i + 1) - 1 do
      let j = col.(slot) in
      links_to_placed.(j) <- links_to_placed.(j) + 1
    done
  done;
  order

let solve ?(config = default_config) ?(interrupt = fun () -> false)
    ?(on_progress = fun ~iter:_ ~energy:_ ~bound:_ -> ()) mrf =
  let run () =
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
      _;
    } =
      Mrf.Compact.arrays mrf
    in
    let n = Mrf.n_nodes mrf in
    let m = Mrf.n_edges mrf in
    let order = connectivity_order mrf in
    (* incumbent from the approximate pipeline *)
    let warm = Trws.solve ~interrupt mrf in
    let polished = Icm.solve ~interrupt ~init:warm.Solver.labeling mrf in
    let best_x = Array.copy polished.Solver.labeling in
    let best = ref polished.Solver.energy in
    let warm_bound = warm.Solver.lower_bound in
    (* per-edge minimum over all label pairs (for fully-unassigned edges) *)
    let edge_min =
      Array.init m (fun e -> Array.fold_left min infinity (Mrf.edge_cost mrf e))
    in
    let x = Array.make n 0 in
    let assigned = Array.make n false in
    let nodes = ref 0 in
    let complete = ref true in
    (* [partial_costs i] fills [scratch.(l)], for each label l of node i,
       with its unary plus its pairwise costs against i's assigned
       neighbours — unary first, then the edges in incidence order *)
    let scratch = Array.make (Mrf.max_label_count mrf) 0.0 in
    let partial_costs i =
      let k = labels.(i) in
      Array.blit unary unary_off.(i) scratch 0 k;
      for slot = inc_off.(i) to inc_off.(i + 1) - 1 do
        let j = col.(slot) in
        if assigned.(j) then begin
          let code = inc.(slot) in
          let xj = x.(j) in
          let base = pot_off.(etab.(code lsr 1)) in
          if code land 1 = 1 then begin
            let kj = labels.(j) in
            for l = 0 to k - 1 do
              scratch.(l) <- scratch.(l) +. pot.(base + (l * kj) + xj)
            done
          end
          else begin
            let row = base + (xj * k) in
            for l = 0 to k - 1 do
              scratch.(l) <- scratch.(l) +. pot.(row + l)
            done
          end
        end
      done
    in
    (* admissible completion bound given the current partial assignment *)
    let remainder_bound () =
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        if not assigned.(i) then begin
          (* best label of i against assigned neighbours *)
          partial_costs i;
          let best_label = ref infinity in
          for l = 0 to labels.(i) - 1 do
            if scratch.(l) < !best_label then best_label := scratch.(l)
          done;
          acc := !acc +. !best_label
        end
      done;
      (* fully-unassigned edges, counted once via their u endpoint *)
      for e = 0 to m - 1 do
        if (not assigned.(eu.(e))) && not assigned.(ev.(e)) then
          acc := !acc +. edge_min.(e)
      done;
      !acc
    in
    let rec branch depth g =
      if !nodes >= config.node_limit then complete := false
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
          let k = labels.(i) in
          (* try labels in increasing local-cost order *)
          partial_costs i;
          let costs = Array.init k (fun l -> (scratch.(l), l)) in
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
    (best_x, !best, !nodes, !complete, warm_bound)
  in
  let (labeling, energy, iterations, complete, warm_bound), runtime_s =
    Solver.timed (fun () -> Obs.span ~name:"bnb.solve" run)
  in
  {
    Solver.labeling;
    energy;
    lower_bound = (if complete then energy else warm_bound);
    iterations;
    converged = complete;
    runtime_s;
  }

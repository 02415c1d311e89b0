(* Computes the reference energies of ../fixtures/reference.tsv:

     pin.exe WORKLOAD [INSTANCE_SEED...]

   prints one fixture line per (instance, variant).  The case study is
   closed by branch-and-bound ({!Netdiv_mrf.Bnb}), which certifies its
   optimum; the large workloads take the best of the default pipeline,
   multi-restart ICM and a long simulated-annealing run started from the
   pipeline's labeling. *)

module W = Perfbench.Workloads
module Mrf = Netdiv_mrf.Mrf
module Solver = Netdiv_mrf.Solver
module Sa = Netdiv_mrf.Sa
module Bnb = Netdiv_mrf.Bnb
module Runner = Netdiv_mrf.Runner
module Encode = Netdiv_core.Encode
module Optimize = Netdiv_core.Optimize

let sa_config =
  { Sa.default_config with cooling = 0.97; sweeps_per_temp = 4; restarts = 2; domains = 2 }

let pin w instance_seed =
  let raw, _ = W.generate w ~instance_seed in
  let inst =
    match W.prepare w ~jobs:2 ~e_ref:(fun _ -> Some 0.0) raw with
    | Ok i -> i
    | Error msg -> failwith msg
  in
  List.iter
    (fun (variant, constraints, net) ->
      let encoded = Encode.encode net constraints in
      let model = Encode.mrf encoded in
      let pipeline = Optimize.run net constraints in
      let init = Encode.labeling_of encoded pipeline.Optimize.assignment in
      let sa = Sa.solve ~config:sa_config ~init model in
      let icm = Runner.run ~stages:[ Runner.icm_restarts ~restarts:8 ~jobs:2 () ] ~init model in
      let searched =
        [
          (pipeline.Optimize.energy, "trws+icm");
          (sa.Solver.energy, "sa(cooling 0.97, 2 restarts) from trws+icm");
          (icm.Runner.result.Solver.energy, "8-restart icm from trws+icm");
        ]
      in
      let candidates =
        match w with
        | W.Case_study ->
            let b = Bnb.solve model in
            if b.Solver.converged then [ (b.Solver.energy, "bnb-certified optimum") ]
            else (b.Solver.energy, "bnb incumbent (2M nodes, not closed)") :: searched
        | W.Scaled_ics | W.Random_frustrated | W.Zoned_parallel -> searched
      in
      let e, how =
        List.fold_left (fun (be, bh) (e, h) -> if e < be then (e, h) else (be, bh))
          (infinity, "") candidates
      in
      Printf.printf "%s\t%d\t%s\t%.17g\t%s\n%!" (W.to_string w) instance_seed variant e
        (match candidates with
        | [ _ ] -> how
        | _ ->
            Printf.sprintf "best of: %s"
              (String.concat "; "
                 (List.map (fun (e, h) -> Printf.sprintf "%s %.17g" h e) candidates))))
    (W.problems_of inst)

let () =
  match Array.to_list Sys.argv with
  | _ :: name :: seeds -> (
      match W.of_string name with
      | None -> prerr_endline ("pin: unknown workload " ^ name); exit 2
      | Some w ->
          let seeds = if seeds = [] then [ W.instance_seed w ] else List.map int_of_string seeds in
          List.iter (pin w) seeds)
  | _ -> prerr_endline "usage: pin.exe WORKLOAD [INSTANCE_SEED...]"; exit 2

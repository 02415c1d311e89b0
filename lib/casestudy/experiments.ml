module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Constr = Netdiv_core.Constr
module Optimize = Netdiv_core.Optimize
module Attack_bn = Netdiv_bayes.Attack_bn
module Engine = Netdiv_sim.Engine

type assignments = {
  optimal : Assignment.t;
  host_constrained : Assignment.t;
  product_constrained : Assignment.t;
  random : Assignment.t;
  mono : Assignment.t;
}

let optimal_or_fail ?budget net constraints =
  let report = Optimize.run ?budget net constraints in
  if not report.Optimize.constraints_ok then
    failwith "Experiments: optimizer violated the constraint set";
  report.Optimize.assignment

let compute_assignments ?(seed = 2020) ?budget net =
  let c1 = Products.host_constraints net in
  let c2 = Products.product_constraints net in
  let rng = Random.State.make [| seed |] in
  {
    optimal = optimal_or_fail ?budget net [];
    host_constrained = optimal_or_fail ?budget net c1;
    product_constrained = optimal_or_fail ?budget net c2;
    random = Constr.apply_fixes net c1 (Assignment.random ~rng net);
    mono = Constr.apply_fixes net c1 (Assignment.mono net);
  }

let labelled a =
  [
    ("optimal", a.optimal);
    ("host-constr", a.host_constrained);
    ("product-constr", a.product_constrained);
    ("random", a.random);
    ("mono", a.mono);
  ]

type diversity_row = {
  label : string;
  log_p_ref : float;
  log_p_sim : float;
  d_bn : float;
}

let diversity_table ?(p_avg = Attack_bn.default_p_avg) a =
  let entry = Topology.host "c4" and target = Topology.host Topology.target in
  List.map
    (fun (label, assignment) ->
      let p_ref =
        Attack_bn.p_compromise assignment ~entry ~target
          ~model:(Attack_bn.Fixed p_avg)
      in
      let p_sim =
        Attack_bn.p_compromise assignment ~entry ~target
          ~model:Attack_bn.Uniform_choice
      in
      {
        label;
        log_p_ref = log10 p_ref;
        log_p_sim = log10 p_sim;
        d_bn = p_ref /. p_sim;
      })
    (labelled a)

type mttc_row = {
  label : string;
  per_entry : (string * Engine.mttc_stats) list;
}

let mttc_table ?(seed = 7) ?(runs = 1000) a =
  let target = Topology.host Topology.target in
  (* Table VI omits the random baseline *)
  let rows =
    List.filter (fun (label, _) -> label <> "random") (labelled a)
  in
  List.map
    (fun (label, assignment) ->
      let per_entry =
        List.map
          (fun entry_name ->
            let rng = Random.State.make [| seed; Hashtbl.hash label;
                                           Hashtbl.hash entry_name |] in
            ( entry_name,
              Engine.mttc ~rng ~runs assignment
                ~entry:(Topology.host entry_name) ~target ))
          Topology.entry_points
      in
      { label; per_entry })
    rows

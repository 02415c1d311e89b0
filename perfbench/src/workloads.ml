module Graph = Netdiv_graph.Graph
module Traversal = Netdiv_graph.Traversal
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Constr = Netdiv_core.Constr
module Encode = Netdiv_core.Encode
module Optimize = Netdiv_core.Optimize
module Mrf = Netdiv_mrf.Mrf
module Trws = Netdiv_mrf.Trws
module Icm = Netdiv_mrf.Icm
module Solver = Netdiv_mrf.Solver
module Budget = Netdiv_mrf.Runner.Budget
module Attack_bn = Netdiv_bayes.Attack_bn
module Bn = Netdiv_bayes.Bn
module Engine = Netdiv_sim.Engine
module Corpus = Netdiv_vuln.Corpus
module Nvd = Netdiv_vuln.Nvd
module Similarity = Netdiv_vuln.Similarity
module Experiments = Netdiv_casestudy.Experiments
module Products = Netdiv_casestudy.Products
module Topology = Netdiv_casestudy.Topology
module Scaled = Netdiv_casestudy.Scaled
module Workload = Netdiv_workload.Workload

type name = Case_study | Scaled_ics | Random_frustrated | Zoned_parallel

let all = [ Case_study; Scaled_ics; Random_frustrated; Zoned_parallel ]

let to_string = function
  | Case_study -> "case_study"
  | Scaled_ics -> "scaled_ics"
  | Random_frustrated -> "random_frustrated"
  | Zoned_parallel -> "zoned_parallel"

let of_string s = List.find_opt (fun w -> to_string w = s) all

let why = function
  | Case_study ->
      "Fig. 3 ICS (32 hosts): evaluation-heavy, solver-light; the only \
       workload with constraint encoding and exact d_bn"
  | Scaled_ics ->
      "case study scaled 100x (3,200 hosts): informative LP bound, so TRW-S \
       does the work; MTTC dominates the pass"
  | Random_frustrated ->
      "10k-host random network (degree 10, 5 services): flat dual, ICM \
       supplies all the gain; stresses encode, kernels, bound"
  | Zoned_parallel ->
      "10k hosts in 10 zones streamed into the compact MRF, solved by zone \
       decomposition on the domain pool"

(* Workload sizes (see README.md for the measurements behind them). *)
let scaled_scale = 100
let random_params seed =
  { Workload.hosts = 10_000; degree = 10; services = 5; products_per_service = 4;
    seed }
let zoned_params seed =
  { Workload.default_zoned with z_hosts = 10_000; z_zones = 10; z_seed = seed }

let zoned_services = (zoned_params 1).Workload.z_services

(* MTTC runs per entry.  The large workloads run fewer than the case
   study's 1,000, so that a pass stays short enough for a run to hold
   ten or more: a median over that many passes is what keeps the gated
   timings steady on a shared host. *)
let mttc_runs = function
  | Case_study -> 1000
  | Scaled_ics -> 500
  | Random_frustrated -> 50
  | Zoned_parallel -> 30

let deadline_s = function
  | Case_study -> 0.002
  | Scaled_ics -> 0.25
  | Random_frustrated -> 1.0
  | Zoned_parallel -> 3.0

let dbn_time_limit = 0.25

(* Each workload runs one pinned instance, whose reference energy is
   in the fixture; the --seed argument drives the stochastic evaluation.
   Instance seeds of one generator differ far more than a code change
   should move the metrics (random_frustrated seeds 1-4: energy 30.4k to
   40.3k, MTTC 29 to 167 ticks), so varying them would hide regressions
   in instance noise. *)
let instance_seed = function
  | Case_study -> 0
  | Scaled_ics | Random_frustrated | Zoned_parallel -> 1

let variants = function
  | Case_study -> [ "optimal"; "host-constr"; "product-constr" ]
  | Scaled_ics | Random_frustrated | Zoned_parallel -> [ "optimal" ]

(* ------------------------------------------------------------ inputs *)

type raw =
  | Raw_case of { net : Network.t; corpora : (Corpus.spec * Nvd.t * Similarity.table) list }
  | Raw_scaled of Scaled.t
  | Raw_random of Network.t
  | Raw_zoned of Mrf.t * int array

let timed_step steps name f =
  let v, dt = Stats.clock f in
  steps := (name, dt) :: !steps;
  v

let generate w ~instance_seed =
  let steps = ref [] in
  let raw =
    match w with
    | Case_study ->
        let dbs =
          timed_step steps "vuln.synthesize" (fun () ->
              List.map (fun spec -> (spec, Corpus.synthesize spec)) Corpus.all_specs)
        in
        let corpora =
          timed_step steps "vuln.similarity" (fun () ->
              List.map
                (fun (spec, db) ->
                  (spec, db, Similarity.of_nvd db (Array.to_list spec.Corpus.products)))
                dbs)
        in
        let net = timed_step steps "casestudy.network" Products.network in
        Raw_case { net; corpora }
    | Scaled_ics ->
        Raw_scaled
          (timed_step steps "casestudy.generate" (fun () ->
               Scaled.generate ~seed:instance_seed ~scale:scaled_scale ()))
    | Random_frustrated ->
        Raw_random
          (timed_step steps "workload.instance" (fun () ->
               Workload.instance (random_params instance_seed)))
    | Zoned_parallel ->
        let model, zone_of =
          timed_step steps "workload.stream_zoned" (fun () ->
              Workload.stream_zoned (zoned_params instance_seed))
        in
        Raw_zoned (model, zone_of)
  in
  (raw, List.rev !steps)

type problem = {
  variant : string;
  constraints : Constr.t list;
  encoded : Encode.encoded;
  e_ref : float;
}

(* How the optimizer routes TRW-S: the serial legacy path, or zone
   decomposition on [jobs] domains (what [Optimize.run ~zone_of ~jobs]
   does). *)
type route = Serial | Zoned of { zone_of : int array; jobs : int }

type instance = {
  workload : name;
  net : Network.t;
  problems : problem list;
  route : route;
  jobs : int;
  entries : int list;
  target : int;
  stream : (Mrf.t * int) option;  (** zoned: streamed model, services *)
  corpora : (Corpus.spec * Nvd.t * Similarity.table) list;
  bn_nodes : int;
}

(* The host farthest (in hops) from [entry]; the lowest id on ties. *)
let farthest net entry =
  let d = Traversal.bfs (Network.graph net) entry in
  let best = ref entry in
  Array.iteri (fun h x -> if x > d.(!best) then best := h) d;
  !best

(* The host network behind a streamed zoned model: variable
   [host * services + service], every host running every service, and
   one shared similarity table per service.  Encoding it gives the
   streamed model's energy function, which the checks confirm. *)
let network_of_stream model ~services =
  let hosts = Mrf.n_nodes model / services in
  let links = Hashtbl.create (Mrf.n_edges model / services) in
  let tables = Array.make services [||] in
  for e = 0 to Mrf.n_edges model - 1 do
    let u, v = Mrf.edge_endpoints model e in
    let s = u mod services in
    Hashtbl.replace links (min (u / services) (v / services), max (u / services) (v / services)) ();
    if tables.(s) = [||] then tables.(s) <- Array.copy (Mrf.edge_cost model e)
  done;
  let products = Mrf.label_count model 0 in
  let graph = Graph.of_edges ~n:hosts (List.of_seq (Hashtbl.to_seq_keys links)) in
  Network.create ~graph
    ~services:
      (Array.init services (fun s ->
           {
             Network.sv_name = Printf.sprintf "s%d" s;
             sv_products = Array.init products (Printf.sprintf "p%d");
             sv_similarity = tables.(s);
           }))
    ~hosts:
      (Array.init hosts (fun h ->
           {
             Network.h_name = Printf.sprintf "h%d" h;
             h_services = List.init services (fun s -> (s, [||]));
           }))

let prepare w ~jobs ~e_ref raw =
  let net, entries, target, stream, corpora =
    match raw with
    | Raw_case { net; corpora } ->
        ( net,
          List.map Topology.host Topology.entry_points,
          Topology.host Topology.target,
          None,
          corpora )
    | Raw_scaled s -> (s.Scaled.network, s.Scaled.entries, s.Scaled.target, None, [])
    | Raw_random net -> (net, [ 0 ], farthest net 0, None, [])
    | Raw_zoned (model, _) ->
        let net = network_of_stream model ~services:zoned_services in
        (net, [ 0 ], farthest net 0, Some (model, zoned_services), [])
  in
  let constraints = function
    | "host-constr" -> Products.host_constraints net
    | "product-constr" -> Products.product_constraints net
    | _ -> []
  in
  let rec problems acc = function
    | [] -> Ok (List.rev acc)
    | variant :: rest -> (
        match e_ref variant with
        | None -> Error (Printf.sprintf "no pinned E_ref for variant %s" variant)
        | Some e_ref ->
            let constraints = constraints variant in
            let encoded = Encode.encode net constraints in
            problems ({ variant; constraints; encoded; e_ref } :: acc) rest)
  in
  match problems [] (variants w) with
  | Error _ as e -> e
  | Ok problems ->
      let route =
        match raw with
        | Raw_zoned (_, zone_of_var) ->
            (* the streamed zone map is per streamed variable; re-key it
               by the encoding's variables *)
            let enc = (List.hd problems).encoded in
            let zone_of =
              Array.init (Encode.n_vars enc) (fun v ->
                  let h, s = Encode.slot_of enc v in
                  zone_of_var.((h * zoned_services) + s))
            in
            Zoned { zone_of; jobs }
        | Raw_case _ | Raw_scaled _ | Raw_random _ -> Serial
      in
      let bn, _ =
        Attack_bn.build (Assignment.mono net) ~entry:(List.hd entries)
          ~model:Attack_bn.Uniform_choice ()
      in
      Ok
        {
          workload = w;
          net;
          problems;
          route;
          jobs;
          entries;
          target;
          stream;
          corpora;
          bn_nodes = Bn.n_nodes bn;
        }

type sizes = {
  hosts : int;
  links : int;
  vars : int;
  edges : int;
  cves : int;
  bn_nodes : int;
}

let sizes i =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 i.problems in
  {
    hosts = Network.n_hosts i.net;
    links = Graph.n_edges (Network.graph i.net);
    vars = sum (fun p -> Encode.n_vars p.encoded);
    edges = sum (fun p -> Mrf.n_edges (Encode.mrf p.encoded));
    cves = List.fold_left (fun acc (_, db, _) -> acc + Nvd.size db) 0 i.corpora;
    bn_nodes = i.bn_nodes;
  }

(* ------------------------------------------------------------ passes *)

type check = { what : string; ok : bool }

type pass = {
  optimize_s : float;
  optimize_cpu_s : float;
  pipeline_s : float;
  pipeline_cpu_s : float;
  energy : float;
  bound : float;
  e_ref : float;
  dbn : float option;
  dbn_attempts : int;
  dbn_failed : int;
  dbn_s : float;
  mttc_ticks : float;
  mttc_s : float;
  mttc_runs : int;
  mttc_total_ticks : float;
  speedup : float;
  checks : check list;
  fingerprint : string;
  solutions : solution list;
}

and solution = {
  assignment : Assignment.t;
  s_energy : float;
  s_bound : float;
  violated : int;
}

let zone_of_route = function Serial -> None | Zoned z -> Some z.zone_of
let jobs_of_route = function Serial -> None | Zoned z -> Some z.jobs

let solve_library ?jobs i p =
  let jobs = match jobs with Some _ -> jobs | None -> jobs_of_route i.route in
  let r =
    Optimize.run ?jobs ?zone_of:(zone_of_route i.route) i.net p.constraints
  in
  {
    assignment = r.Optimize.assignment;
    s_energy = r.Optimize.energy;
    s_bound = r.Optimize.lower_bound;
    violated = List.length r.Optimize.violated;
  }

(* [Optimize.run]'s direct path, one layer per span, with the counts
   each layer's output carries. *)
let solve_traced i p =
  let enc =
    Trace.span "core.encode" (fun () ->
        let enc = Encode.encode i.net p.constraints in
        let model = Encode.mrf enc in
        Trace.count "core.vars" (float_of_int (Encode.n_vars enc));
        Trace.count "core.edges" (float_of_int (Mrf.n_edges model));
        Trace.count "mrf.tables" (float_of_int (Mrf.n_tables model));
        Trace.count "mrf.words" (float_of_int (Mrf.footprint model).Mrf.f_words);
        enc)
  in
  let model = Encode.mrf enc in
  let first = ref nan in
  let on_progress ~iter:_ ~energy ~bound:_ =
    if Float.is_nan !first then first := energy
  in
  let config = Trws.default_config in
  let r =
    Trace.span "mrf.trws" (fun () ->
        let r =
          match i.route with
          | Serial -> Trws.solve ~config ~on_progress model
          | Zoned { zone_of; jobs } ->
              Trws.solve_zoned ~config ~on_progress ~zone_of ~jobs model
        in
        Trace.count "mrf.trws_sweeps" (float_of_int r.Solver.iterations);
        Trace.count "mrf.trws_converged" (if r.Solver.converged then 1.0 else 0.0);
        Trace.count "mrf.trws_energy" r.Solver.energy;
        Trace.count "mrf.trws_bound" r.Solver.lower_bound;
        (match i.route with
        | Serial -> ()
        | Zoned _ ->
            Trace.count "mrf.zoned_rounds" (float_of_int r.Solver.iterations);
            Trace.count "mrf.zoned_gap"
              ((r.Solver.energy -. r.Solver.lower_bound)
              /. Float.max 1.0 (Float.abs r.Solver.energy)));
        r)
  in
  let polish =
    Trace.span "mrf.icm" (fun () ->
        let p = Icm.solve ~init:r.Solver.labeling model in
        Trace.count "mrf.icm_sweeps" (float_of_int p.Solver.iterations);
        p)
  in
  let best =
    if polish.Solver.energy < r.Solver.energy then
      { polish with Solver.lower_bound = r.Solver.lower_bound }
    else r
  in
  let first = if Float.is_nan !first then r.Solver.energy else !first in
  Trace.count "mrf.icm_gain" (r.Solver.energy -. best.Solver.energy);
  Trace.count "mrf.first_decode_drop" (first -. best.Solver.energy);
  let assignment =
    Trace.span "core.decode" (fun () -> Encode.decode enc best.Solver.labeling)
  in
  let violated =
    Trace.span "core.verify" (fun () ->
        List.length (Constr.violations i.net assignment p.constraints))
  in
  {
    assignment;
    s_energy = best.Solver.energy;
    s_bound = best.Solver.lower_bound;
    violated;
  }

exception Time_limit

(* Runs [f] under a limit on the process's CPU time: SIGPROF raises
   out of the computation at its next poll point.  A CPU-time limit
   makes a failed attempt cost the same work however busy the host is,
   where a wall-clock one would cost less the more the process waits.
   Only the calling domain runs while [f] does (the library joins its
   domains after every parallel region), so the signal is handled there
   and the process's CPU time is [f]'s.  A late signal after [f]
   returned is ignored. *)
let with_time_limit secs f =
  let armed = ref true in
  let previous =
    Sys.signal Sys.sigprof
      (Sys.Signal_handle (fun _ -> if !armed then raise Time_limit))
  in
  let set v =
    ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = v })
  in
  set secs;
  Fun.protect
    ~finally:(fun () ->
      armed := false;
      set 0.0;
      Sys.set_signal Sys.sigprof previous)
    (fun () ->
      try
        let v = f () in
        armed := false;
        Some v
      with Time_limit -> None)

let check what ok = { what; ok }
let jobs_invariance = "jobs-invariance:"

let check_solution i (p : problem) (s : solution) =
  let tol = 1e-9 *. Float.max 1.0 (Float.abs p.e_ref) in
  let recomputed = Encode.assignment_energy p.encoded s.assignment in
  [
    check (p.variant ^ ": recomputed energy matches") (Stats.close recomputed s.s_energy);
    check (p.variant ^ ": constraints hold") (s.violated = 0);
    check (p.variant ^ ": bound <= energy") (s.s_bound <= s.s_energy +. tol);
    check (p.variant ^ ": bound <= E_ref") (s.s_bound <= p.e_ref +. tol);
  ]
  @
  match i.stream with
  | None -> []
  | Some (model, services) ->
      let labeling =
        Array.init (Mrf.n_nodes model) (fun v ->
            Assignment.get s.assignment ~host:(v / services) ~service:(v mod services))
      in
      [
        check (p.variant ^ ": streamed-model energy matches")
          (Stats.close (Mrf.energy model labeling) s.s_energy);
      ]

let same_solution (a : solution) (b : solution) =
  Assignment.equal a.assignment b.assignment
  && Int64.equal (Int64.bits_of_float a.s_energy) (Int64.bits_of_float b.s_energy)
  && Int64.equal (Int64.bits_of_float a.s_bound) (Int64.bits_of_float b.s_bound)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let stats_ok (m : Engine.mttc_stats) =
  m.Engine.successes > 0 && Float.is_finite m.Engine.mean_ticks && m.Engine.mean_ticks > 0.0

let ticks_of (m : Engine.mttc_stats) =
  (m.Engine.mean_ticks *. float_of_int m.Engine.successes)
  +. float_of_int ((m.Engine.runs - m.Engine.successes) * m.Engine.max_ticks)

let fingerprint solved ~mttc ~dbn =
  String.concat " "
    (List.map (fun s -> Printf.sprintf "%h/%h" s.s_energy s.s_bound) solved
    @ List.map (Printf.sprintf "%h") mttc
    @ [ (match dbn with Some d -> Printf.sprintf "%h" d | None -> "-") ])

let case_assignments i ~seed ~traced =
  if not traced then (Experiments.compute_assignments ~seed i.net, None)
  else begin
    let solved = List.map (solve_traced i) i.problems in
    let by_variant v =
      snd (List.find (fun (p, _) -> p.variant = v) (List.combine i.problems solved))
    in
    let c1 = (List.nth i.problems 1).constraints in
    (* the two baselines exactly as [compute_assignments] builds them *)
    let rng = Random.State.make [| seed |] in
    ( {
        Experiments.optimal = (by_variant "optimal").assignment;
        host_constrained = (by_variant "host-constr").assignment;
        product_constrained = (by_variant "product-constr").assignment;
        random = Constr.apply_fixes i.net c1 (Assignment.random ~rng i.net);
        mono = Constr.apply_fixes i.net c1 (Assignment.mono i.net);
      },
      Some solved )
  end

(* The multicore MTTC path on a tenth of a batch at 1 and J domains:
   the statistics must agree, and the time ratio is the batch's
   speedup. *)
let mttc_domains_check i ~seed a =
  let runs = max 10 (mttc_runs i.workload / 10) and entry = List.hd i.entries in
  let batch domains =
    Stats.time (fun () ->
        Engine.mttc_parallel ~domains ~seed ~runs a ~entry ~target:i.target ())
  in
  let one, t1 = batch 1 in
  let par, tj = batch i.jobs in
  (check (jobs_invariance ^ " mttc_parallel agrees across domain counts") (one = par), t1 /. tj)

let pass_case i ~seed ~traced =
  let runs = mttc_runs i.workload in
  let (((a, traced_solved), optimize), (dv, dbn_s), (table, mttc_s)), pipeline =
    Stats.clock (fun () ->
        Trace.span "pass" (fun () ->
            let optimized =
              Stats.clock (fun () ->
                  Trace.span "optimize" (fun () -> case_assignments i ~seed ~traced))
            in
            let a = fst (fst optimized) in
            let dv =
              Stats.time (fun () ->
                  Trace.span "bayes.dbn" (fun () ->
                      with_time_limit dbn_time_limit (fun () ->
                          Experiments.diversity_table a)))
            in
            let table =
              Stats.time (fun () ->
                  Trace.span "sim.mttc" (fun () -> Experiments.mttc_table ~seed ~runs a))
            in
            (optimized, dv, table)))
  in
  (* checks *)
  let library = List.map (solve_library i) i.problems in
  let solved = Option.value traced_solved ~default:library in
  let assigned = [ a.Experiments.optimal; a.host_constrained; a.product_constrained ] in
  let checks =
    List.concat
      (List.map2
         (fun (p, s) (lib, asg) ->
           check_solution i p s
           @ (if traced then
                [ check (p.variant ^ ": traced path equals Optimize.run") (same_solution s lib) ]
              else [])
           @ [
               check (p.variant ^ ": Experiments assignment equals Optimize.run")
                 (Assignment.equal asg lib.assignment);
             ])
         (List.combine i.problems solved)
         (List.combine library assigned))
  in
  let corpus_checks =
    List.map
      (fun (spec, _, table) ->
        let curated = Corpus.table spec in
        let n = Similarity.size curated in
        let same = ref (Similarity.size table = n) in
        for x = 0 to n - 1 do
          for y = 0 to n - 1 do
            if !same && Similarity.get table x y <> Similarity.get curated x y then
              same := false
          done
        done;
        check (spec.Corpus.label ^ ": synthesized corpus reproduces the curated table") !same)
      i.corpora
  in
  let dbn_checks, dbn =
    match dv with
    | None -> ([ check "d_bn exact within the time limit" false ], None)
    | Some rows ->
        ( [
            check "d_bn rows finite and positive"
              (List.for_all
                 (fun (r : Experiments.diversity_row) ->
                   Float.is_finite r.Experiments.d_bn && r.Experiments.d_bn > 0.0)
                 rows);
          ],
          Some (List.hd rows).Experiments.d_bn )
  in
  let optimal_row = List.hd table in
  let per_entry = List.map snd optimal_row.Experiments.per_entry in
  let all_stats = List.concat_map (fun r -> List.map snd r.Experiments.per_entry) table in
  let domains_check, speedup = mttc_domains_check i ~seed a.Experiments.optimal in
  let mttc_checks = [ check "MTTC statistics valid" (List.for_all stats_ok all_stats); domains_check ] in
  let mttc = List.map (fun m -> m.Engine.mean_ticks) per_entry in
  {
    optimize_s = optimize.Stats.wall;
    optimize_cpu_s = optimize.Stats.cpu;
    pipeline_s = pipeline.Stats.wall;
    pipeline_cpu_s = pipeline.Stats.cpu;
    energy = List.fold_left (fun acc s -> acc +. s.s_energy) 0.0 solved;
    bound = List.fold_left (fun acc s -> acc +. s.s_bound) 0.0 solved;
    e_ref = List.fold_left (fun acc (p : problem) -> acc +. p.e_ref) 0.0 i.problems;
    dbn;
    dbn_attempts = 1;
    dbn_failed = (if dv = None then 1 else 0);
    dbn_s;
    mttc_ticks = mean mttc;
    mttc_s;
    mttc_runs = List.fold_left (fun acc m -> acc + m.Engine.runs) 0 all_stats;
    mttc_total_ticks = List.fold_left (fun acc m -> acc +. ticks_of m) 0.0 all_stats;
    speedup;
    checks = checks @ corpus_checks @ dbn_checks @ mttc_checks;
    solutions = solved;
    fingerprint = fingerprint solved ~mttc:(List.map (fun m -> m.Engine.mean_ticks) all_stats) ~dbn;
  }

let pass_net i ~seed ~traced =
  let p = List.hd i.problems in
  (* only the zoned workload runs parallel regions in its pipeline; the
     others keep it serial, so the domain pool moves none of their
     end-to-end metrics *)
  let domains = match i.route with Zoned z -> z.jobs | Serial -> 1 in
  let entry = List.hd i.entries in
  let runs = mttc_runs i.workload in
  let ((s, optimize), (d, dbn_s), (timed_mttc, mttc_s)), pipeline =
    Stats.clock (fun () ->
        Trace.span "pass" (fun () ->
            let solved =
              Stats.clock (fun () ->
                  Trace.span "optimize" (fun () ->
                      if traced then solve_traced i p else solve_library i p))
            in
            let s = fst solved in
            let d =
              Stats.time (fun () ->
                  Trace.span "bayes.dbn" (fun () ->
                      with_time_limit dbn_time_limit (fun () ->
                          Attack_bn.diversity s.assignment ~entry ~target:i.target)))
            in
            let mttc =
              Stats.time (fun () ->
                  Trace.span "sim.mttc" (fun () ->
                      List.map
                        (fun entry ->
                          Stats.time (fun () ->
                              Engine.mttc_parallel ~domains ~seed ~runs
                                s.assignment ~entry ~target:i.target ()))
                        i.entries))
            in
            (solved, d, mttc)))
  in
  let stats = List.map fst timed_mttc in
  let domains_check, speedup = mttc_domains_check i ~seed s.assignment in
  let mttc_checks = [ check "MTTC statistics valid" (List.for_all stats_ok stats); domains_check ] in
  (* on the zoned route the traced result is compared with Optimize.run
     at jobs 1 by [jobs_check] *)
  let path_checks =
    match i.route with
    | Serial when traced ->
        [ check "traced path equals Optimize.run" (same_solution s (solve_library i p)) ]
    | Serial | Zoned _ -> []
  in
  let dbn_checks =
    match d with
    | Some d -> [ check "d_bn positive" (d > 0.0 && not (Float.is_nan d)) ]
    | None -> []
  in
  let mttc = List.map (fun m -> m.Engine.mean_ticks) stats in
  {
    optimize_s = optimize.Stats.wall;
    optimize_cpu_s = optimize.Stats.cpu;
    pipeline_s = pipeline.Stats.wall;
    pipeline_cpu_s = pipeline.Stats.cpu;
    energy = s.s_energy;
    bound = s.s_bound;
    e_ref = p.e_ref;
    dbn = d;
    dbn_attempts = 1;
    dbn_failed = (if d = None then 1 else 0);
    dbn_s;
    mttc_ticks = mean mttc;
    mttc_s;
    mttc_runs = runs * List.length i.entries;
    mttc_total_ticks = List.fold_left (fun acc m -> acc +. ticks_of m) 0.0 stats;
    speedup;
    checks = check_solution i p s @ path_checks @ dbn_checks @ mttc_checks;
    fingerprint = fingerprint [ s ] ~mttc ~dbn:d;
    solutions = [ s ];
  }

let pass i ~seed ~traced =
  match i.workload with
  | Case_study -> pass_case i ~seed ~traced
  | Scaled_ics | Random_frustrated | Zoned_parallel -> pass_net i ~seed ~traced

let jobs_check i (p : pass) =
  match (i.route, i.problems, p.solutions) with
  | Zoned _, [ problem ], [ s ] ->
      let s1, t1 = Stats.time (fun () -> solve_library ~jobs:1 i problem) in
      ( [
          check (jobs_invariance ^ " Optimize.run ~zone_of bitwise equal at jobs 1 and jobs J")
            (same_solution s s1);
        ],
        Some (t1 /. p.optimize_s) )
  | _ -> ([], None)

let deadline_energy i =
  List.fold_left
    (fun acc p ->
      let r =
        Optimize.run ~budget:(Budget.seconds (deadline_s i.workload))
          ?jobs:(jobs_of_route i.route) ?zone_of:(zone_of_route i.route) i.net
          p.constraints
      in
      acc +. r.Optimize.energy)
    0.0 i.problems

let problems_of i = List.map (fun p -> (p.variant, p.constraints, i.net)) i.problems

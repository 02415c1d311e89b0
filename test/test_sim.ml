(* Tests for the agent-based malware-propagation engine. *)

module Engine = Netdiv_sim.Engine
module Gen = Netdiv_graph.Gen
module Graph = Netdiv_graph.Graph
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Fault = Netdiv_fault.Fault
module Obs = Netdiv_obs.Obs

let rng seed = Random.State.make [| seed |]

(* one-service line network with parameterizable similarity *)
let line_net ?(n = 5) ?(sim = 0.5) () =
  let services =
    [| { Network.sv_name = "os"; sv_products = [| "A"; "B" |];
         sv_similarity = [| 1.0; sim; sim; 1.0 |] } |]
  in
  Network.create ~graph:(Gen.line n) ~services
    ~hosts:
      (Array.init n (fun h ->
           { Network.h_name = Printf.sprintf "h%d" h;
             h_services = [ (0, [||]) ] }))

let mono net = Assignment.make net (fun ~host:_ ~service:_ -> 0)
let alternating net = Assignment.make net (fun ~host ~service:_ -> host mod 2)

let test_entry_is_target () =
  let net = line_net () in
  Alcotest.(check (option int)) "tick zero" (Some 0)
    (Engine.run ~rng:(rng 1) (mono net) ~entry:2 ~target:2)

let test_deterministic_under_seed () =
  let net = line_net ~n:8 () in
  let a = alternating net in
  let r1 = Engine.run ~rng:(rng 42) a ~entry:0 ~target:7 in
  let r2 = Engine.run ~rng:(rng 42) a ~entry:0 ~target:7 in
  Alcotest.(check (option int)) "same outcome" r1 r2

let test_certain_infection_speed () =
  (* attempt_scale 1, identical products: one hop per tick, no floor *)
  let net = line_net ~n:6 () in
  let r =
    Engine.run ~rng:(rng 2) ~attempt_scale:1.0 ~sim_floor:0.0 (mono net)
      ~entry:0 ~target:5
  in
  Alcotest.(check (option int)) "five hops" (Some 5) r

let test_zero_rate_blocks () =
  (* similarity 0, floor 0: the worm can never move *)
  let net = line_net ~sim:0.0 () in
  let r =
    Engine.run ~rng:(rng 3) ~attempt_scale:1.0 ~sim_floor:0.0
      (alternating net) ~entry:0 ~target:4
  in
  Alcotest.(check (option int)) "blocked" None r

let test_dead_worm_terminates_early () =
  (* with zero rates everywhere the engine must stop long before the cap;
     a pathological spin would make this test time out *)
  let net = line_net ~n:4 ~sim:0.0 () in
  let t0 = Unix.gettimeofday () in
  ignore
    (Engine.run ~rng:(rng 4) ~attempt_scale:1.0 ~sim_floor:0.0
       ~max_ticks:10_000_000 (alternating net) ~entry:0 ~target:3);
  Alcotest.(check bool) "fast" true (Unix.gettimeofday () -. t0 < 1.0)

let test_mttc_stats () =
  let net = line_net ~n:4 () in
  let stats =
    Engine.mttc ~rng:(rng 5) ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:50
      (mono net) ~entry:0 ~target:3
  in
  Alcotest.(check int) "all succeed" 50 stats.Engine.successes;
  Alcotest.(check (float 1e-9)) "deterministic time" 3.0
    stats.Engine.mean_ticks

let test_mttc_diversity_slows () =
  let net = line_net ~n:5 ~sim:0.2 () in
  let fast =
    Engine.mttc ~rng:(rng 6) ~runs:300 (mono net) ~entry:0 ~target:4
  in
  let slow =
    Engine.mttc ~rng:(rng 7) ~runs:300 (alternating net) ~entry:0 ~target:4
  in
  Alcotest.(check bool) "all reach (mono)" true (fast.Engine.successes = 300);
  Alcotest.(check bool) "diversified slower" true
    (slow.Engine.mean_ticks > fast.Engine.mean_ticks)

let test_uniform_vs_best_strategy () =
  (* two services, one shared similarity 1.0 and one 0.0: the best-exploit
     attacker always finds the 1.0, the uniform one coin-flips *)
  let services =
    [|
      { Network.sv_name = "a"; sv_products = [| "P"; "Q" |];
        sv_similarity = [| 1.0; 1.0; 1.0; 1.0 |] };
      { Network.sv_name = "b"; sv_products = [| "P"; "Q" |];
        sv_similarity = [| 1.0; 0.0; 0.0; 1.0 |] };
    |]
  in
  let net =
    Network.create ~graph:(Gen.line 4) ~services
      ~hosts:
        (Array.init 4 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]); (1, [||]) ] }))
  in
  let a = Assignment.make net (fun ~host ~service -> (host + service) mod 2) in
  let best =
    Engine.mttc ~rng:(rng 8) ~strategy:Engine.Best_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:200 a ~entry:0 ~target:3
  in
  let uniform =
    Engine.mttc ~rng:(rng 9) ~strategy:Engine.Uniform_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:200 a ~entry:0 ~target:3
  in
  Alcotest.(check (float 1e-9)) "recon attacker is optimal" 3.0
    best.Engine.mean_ticks;
  Alcotest.(check bool) "uniform attacker is slower" true
    (uniform.Engine.mean_ticks > best.Engine.mean_ticks)

let test_epidemic_curve_monotone () =
  let net = line_net ~n:10 () in
  let curve = Engine.epidemic_curve ~rng:(rng 10) (mono net) ~entry:0 in
  Alcotest.(check bool) "non-empty" true (Array.length curve > 0);
  let ok = ref (curve.(0) >= 1) in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then ok := false
  done;
  Alcotest.(check bool) "monotone" true !ok;
  Alcotest.(check bool) "bounded by hosts" true
    (Array.for_all (fun c -> c <= 10) curve)

let test_invalid_entry () =
  let net = line_net () in
  match Engine.run ~rng:(rng 11) (mono net) ~entry:99 ~target:0 with
  | _ -> Alcotest.fail "accepted bad entry"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------------- stat *)

let test_stat_basics () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Netdiv_sim.Stat.mean xs);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0)
    (Netdiv_sim.Stat.variance xs);
  Alcotest.(check (float 1e-9)) "median" 4.5
    (Netdiv_sim.Stat.percentile xs 0.5);
  Alcotest.(check (float 1e-9)) "p0" 2.0 (Netdiv_sim.Stat.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 9.0
    (Netdiv_sim.Stat.percentile xs 1.0);
  let s = Netdiv_sim.Stat.summarize xs in
  Alcotest.(check int) "n" 8 s.Netdiv_sim.Stat.n;
  let lo, hi = s.Netdiv_sim.Stat.ci95 in
  Alcotest.(check bool) "ci brackets mean" true (lo < 5.0 && 5.0 < hi);
  match Netdiv_sim.Stat.summarize [||] with
  | _ -> Alcotest.fail "accepted empty sample"
  | exception Invalid_argument _ -> ()

let test_stat_percentile_interpolation () =
  let xs = [| 10.0; 20.0 |] in
  Alcotest.(check (float 1e-9)) "quarter" 12.5
    (Netdiv_sim.Stat.percentile xs 0.25);
  match Netdiv_sim.Stat.percentile xs 1.5 with
  | _ -> Alcotest.fail "accepted p > 1"
  | exception Invalid_argument _ -> ()

(* -------------------------------------------------------- new strategies *)

let test_arsenal_weaker_than_adaptive () =
  (* three products in a rainbow corridor A-B-C-A with sim(A,B) =
     sim(B,C) = 0.5 but sim(A,C) = 0.1: the adaptive worm re-arms at
     every hop (0.5 each), the static arsenal (forged for A) hits B at
     0.5 but C at only 0.1 *)
  let products = [| "A"; "B"; "C" |] in
  let sim =
    [| 1.0; 0.5; 0.1;
       0.5; 1.0; 0.5;
       0.1; 0.5; 1.0 |]
  in
  let net =
    Network.create ~graph:(Gen.line 4)
      ~services:
        [| { Network.sv_name = "os"; sv_products = products;
             sv_similarity = sim } |]
      ~hosts:
        (Array.init 4 (fun h ->
             { Network.h_name = Printf.sprintf "h%d" h;
               h_services = [ (0, [||]) ] }))
  in
  (* A - B - C - C: the adaptive worm ends with a same-product hop, the
     arsenal is stuck with sim(A,C) = 0.1 twice *)
  let corridor = [| 0; 1; 2; 2 |] in
  let a = Assignment.make net (fun ~host ~service:_ -> corridor.(host)) in
  let best =
    Engine.mttc ~rng:(rng 32) ~strategy:Engine.Best_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:400 a ~entry:0 ~target:3
  in
  let arsenal =
    Engine.mttc ~rng:(rng 33) ~strategy:Engine.Arsenal_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:400 a ~entry:0 ~target:3
  in
  Alcotest.(check bool) "static worm is slower" true
    (arsenal.Engine.mean_ticks > best.Engine.mean_ticks);
  (* on a mono deployment the arsenal is as good as reconnaissance *)
  let mono_net = line_net ~n:4 () in
  let m = mono mono_net in
  let best_mono =
    Engine.mttc ~rng:(rng 34) ~strategy:Engine.Best_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:50 m ~entry:0 ~target:3
  in
  let arsenal_mono =
    Engine.mttc ~rng:(rng 35) ~strategy:Engine.Arsenal_exploit
      ~attempt_scale:1.0 ~sim_floor:0.0 ~runs:50 m ~entry:0 ~target:3
  in
  Alcotest.(check (float 1e-9)) "equal on mono" best_mono.Engine.mean_ticks
    arsenal_mono.Engine.mean_ticks

let test_mttc_samples_and_summary () =
  let net = line_net ~n:4 () in
  let samples =
    Engine.mttc_samples ~rng:(rng 34) ~attempt_scale:1.0 ~sim_floor:0.0
      ~runs:50 (mono net) ~entry:0 ~target:3
  in
  Alcotest.(check int) "all runs" 50 (Array.length samples);
  Alcotest.(check bool) "deterministic times" true
    (Array.for_all (fun t -> t = 3) samples);
  let stats, summary =
    Engine.mttc_summary ~rng:(rng 35) ~attempt_scale:1.0 ~sim_floor:0.0
      ~runs:50 (mono net) ~entry:0 ~target:3
  in
  Alcotest.(check int) "successes" 50 stats.Engine.successes;
  match summary with
  | Some s -> Alcotest.(check (float 1e-9)) "median" 3.0 s.Netdiv_sim.Stat.median
  | None -> Alcotest.fail "expected summary"

let test_mttc_parallel_matches_domains () =
  let net = line_net ~n:6 ~sim:0.3 () in
  let a = alternating net in
  let with_domains d =
    Engine.mttc_parallel ~domains:d ~seed:9 ~runs:120 a ~entry:0 ~target:5 ()
  in
  let one = with_domains 1 in
  let four = with_domains 4 in
  Alcotest.(check int) "same successes" one.Engine.successes
    four.Engine.successes;
  Alcotest.(check (float 1e-9)) "same mean" one.Engine.mean_ticks
    four.Engine.mean_ticks

let test_mttc_parallel_uniform_exploit () =
  (* the pooled uniform-exploit path must also be domain-count-invariant *)
  let net = line_net ~n:6 ~sim:0.3 () in
  let a = alternating net in
  let with_domains d =
    Engine.mttc_parallel ~domains:d ~seed:21 ~strategy:Engine.Uniform_exploit
      ~runs:120 a ~entry:0 ~target:5 ()
  in
  let one = with_domains 1 in
  let three = with_domains 3 in
  let eight = with_domains 8 in
  Alcotest.(check int) "same successes (3 domains)" one.Engine.successes
    three.Engine.successes;
  Alcotest.(check (float 1e-9)) "same mean (3 domains)" one.Engine.mean_ticks
    three.Engine.mean_ticks;
  Alcotest.(check int) "same successes (oversubscribed)" one.Engine.successes
    eight.Engine.successes;
  Alcotest.(check (float 1e-9)) "same mean (oversubscribed)"
    one.Engine.mean_ticks eight.Engine.mean_ticks

(* -------------------------------------------------------------- defense *)

let no_defense = { Engine.detect_rate = 0.0; immunize = false }

let test_defended_zero_rate_is_undefended () =
  (* certain infection, no detection: target at distance d falls at tick d *)
  let net = line_net ~n:5 () in
  Alcotest.(check (option int)) "distance ticks" (Some 4)
    (Engine.run_defended ~rng:(rng 61) ~attempt_scale:1.0 ~sim_floor:0.0
       ~defense:no_defense (mono net) ~entry:0 ~target:4)

let test_defended_perfect_detection_contains () =
  (* detection probability 1 with immunization: the worm is wiped after
     its first tick, so a target two hops away never falls *)
  let net = line_net ~n:5 () in
  let defense = { Engine.detect_rate = 1.0; immunize = true } in
  let stats =
    Engine.mttc_defended ~rng:(rng 62) ~attempt_scale:0.8 ~sim_floor:0.0
      ~defense ~runs:200 (mono net) ~entry:0 ~target:4
  in
  Alcotest.(check int) "never compromised" 0 stats.Engine.successes

let test_defended_rate_monotone () =
  (* stronger detection -> fewer compromised runs *)
  let net = line_net ~n:5 ~sim:0.4 () in
  let a = alternating net in
  let success rate seed =
    (Engine.mttc_defended ~rng:(rng seed) ~attempt_scale:0.5 ~sim_floor:0.0
       ~defense:{ Engine.detect_rate = rate; immunize = true }
       ~runs:400 a ~entry:0 ~target:4)
      .Engine.successes
  in
  let weak = success 0.01 63 in
  let strong = success 0.2 64 in
  Alcotest.(check bool) "containment improves" true (strong < weak);
  Alcotest.(check bool) "weak defense still leaks" true (weak > 0)

let test_defended_validation () =
  let net = line_net () in
  match
    Engine.run_defended ~rng:(rng 65)
      ~defense:{ Engine.detect_rate = 1.5; immunize = false }
      (mono net) ~entry:0 ~target:1
  with
  | _ -> Alcotest.fail "accepted detect_rate > 1"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------- endpoint validation *)

(* every public entry point rejects a bad endpoint with the documented
   message before it builds the rate table (the Arsenal table reads the
   entry host's services) *)
let endpoint_cases =
  let a = mono (line_net ()) in
  let bad_entry = Invalid_argument "Engine: entry out of range" in
  let bad_target = Invalid_argument "Engine: target out of range" in
  let arsenal = Engine.Arsenal_exploit in
  let case exn f = (exn, fun () -> ignore (f ())) in
  [
    ( "run",
      [ case bad_entry (fun () ->
            Engine.run ~rng:(rng 1) ~strategy:arsenal a ~entry:99 ~target:0);
        case bad_target (fun () ->
            Engine.run ~rng:(rng 1) a ~entry:0 ~target:5) ] );
    ( "mttc",
      [ case bad_entry (fun () ->
            Engine.mttc ~rng:(rng 1) ~strategy:arsenal ~runs:3 a ~entry:(-1)
              ~target:0);
        case bad_target (fun () ->
            Engine.mttc ~rng:(rng 1) ~runs:3 a ~entry:0 ~target:99) ] );
    ( "mttc_samples",
      [ case bad_entry (fun () ->
            Engine.mttc_samples ~rng:(rng 1) ~strategy:arsenal ~runs:3 a
              ~entry:5 ~target:0);
        case bad_target (fun () ->
            Engine.mttc_samples ~rng:(rng 1) ~runs:3 a ~entry:0
              ~target:(-1)) ] );
    ( "mttc_summary",
      [ case bad_entry (fun () ->
            Engine.mttc_summary ~rng:(rng 1) ~strategy:arsenal ~runs:3 a
              ~entry:5 ~target:0);
        case bad_target (fun () ->
            Engine.mttc_summary ~rng:(rng 1) ~runs:3 a ~entry:0 ~target:5) ] );
    ( "mttc_parallel",
      [ case bad_entry (fun () ->
            Engine.mttc_parallel ~seed:1 ~strategy:arsenal ~runs:3 a ~entry:5
              ~target:0 ());
        case bad_target (fun () ->
            Engine.mttc_parallel ~seed:1 ~runs:3 a ~entry:0 ~target:5 ()) ] );
    ( "epidemic_curve",
      [ case bad_entry (fun () ->
            Engine.epidemic_curve ~rng:(rng 1) ~strategy:arsenal a
              ~entry:5) ] );
  ]

let endpoint_tests =
  List.map
    (fun (name, cases) ->
      Alcotest.test_case ("endpoint validation: " ^ name) `Quick (fun () ->
          List.iter (fun (exn, f) -> Alcotest.check_raises name exn f) cases))
    endpoint_cases

(* an injected crash of every pool chunk makes the pool re-execute the
   chunks; each re-executed block must start from a clean workspace, so
   the stats equal the fault-free run's *)
let test_mttc_parallel_chunk_faults () =
  let net = line_net ~n:8 ~sim:0.3 () in
  let a = alternating net in
  let batch strategy =
    Engine.mttc_parallel ~domains:4 ~seed:17 ~strategy ~runs:200 a ~entry:0
      ~target:7 ()
  in
  List.iter
    (fun strategy ->
      let clean = batch strategy in
      Fault.set_spec (Some "rate=1.0,only=pool.chunk");
      Fault.reset ();
      let faulty, fired =
        Fun.protect
          ~finally:(fun () ->
            Fault.set_spec (Some "");
            Fault.reset ())
          (fun () ->
            let s = batch strategy in
            (s, Fault.fired_count ()))
      in
      Alcotest.(check bool) "chunks crashed" true (fired > 0);
      Alcotest.(check int) "same successes" clean.Engine.successes
        faulty.Engine.successes;
      Alcotest.(check (float 0.0)) "same mean" clean.Engine.mean_ticks
        faulty.Engine.mean_ticks)
    [ Engine.Best_exploit; Engine.Uniform_exploit ]

(* ----------------------------------------------- differential vs oracle *)

(* A small random instance, built from [c_seed]: up to 12 hosts, 1-3
   services run by a random subset of hosts (possibly none), random
   symmetric similarity tables.  [zero_sim] gives every host its own
   product and every distinct pair similarity 0: with a zero floor the
   worm is dead on arrival. *)
type case = {
  c_seed : int;
  hosts : int;
  zero_sim : bool;
  strategy : Engine.strategy;
  sim_floor : float;
  attempt_scale : float;
  max_ticks : int;
  entry : int;
  target : int;
  run_seed : int;
  runs : int;
  detect_rate : float;
  immunize : bool;
}

let strategy_name = function
  | Engine.Best_exploit -> "best"
  | Engine.Uniform_exploit -> "uniform"
  | Engine.Arsenal_exploit -> "arsenal"

let print_case c =
  Printf.sprintf
    "{seed=%d hosts=%d zero_sim=%b strategy=%s floor=%g scale=%g \
     max_ticks=%d entry=%d target=%d run_seed=%d runs=%d detect=%g \
     immunize=%b}"
    c.c_seed c.hosts c.zero_sim (strategy_name c.strategy) c.sim_floor
    c.attempt_scale c.max_ticks c.entry c.target c.run_seed c.runs
    c.detect_rate c.immunize

let build_case c =
  let r = Random.State.make [| c.c_seed |] in
  let n = c.hosts in
  let density = [| 0.3; 0.6; 0.9 |].(Random.State.int r 3) in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float r 1.0 < density then edges := (u, v) :: !edges
    done
  done;
  let n_services = 1 + Random.State.int r 3 in
  let levels = [| 0.0; 0.0; 0.3; 0.6; 0.9 |] in
  let services =
    Array.init n_services (fun s ->
        let p = if c.zero_sim then n else 1 + Random.State.int r 3 in
        let sim = Array.make (p * p) 0.0 in
        for i = 0 to p - 1 do
          sim.((i * p) + i) <- 1.0;
          for j = i + 1 to p - 1 do
            let x =
              if c.zero_sim then 0.0
              else levels.(Random.State.int r (Array.length levels))
            in
            sim.((i * p) + j) <- x;
            sim.((j * p) + i) <- x
          done
        done;
        { Network.sv_name = Printf.sprintf "s%d" s;
          sv_products = Array.init p (Printf.sprintf "p%d");
          sv_similarity = sim })
  in
  let hosts =
    Array.init n (fun h ->
        { Network.h_name = Printf.sprintf "h%d" h;
          h_services =
            List.filter_map
              (fun s ->
                if Random.State.float r 1.0 < 0.7 then Some (s, [||])
                else None)
              (List.init n_services Fun.id) })
  in
  let net =
    Network.create ~graph:(Graph.of_edges ~n !edges) ~services ~hosts
  in
  let product =
    Array.init n (fun h ->
        Array.init n_services (fun s ->
            if c.zero_sim then h
            else
              Random.State.int r
                (Array.length services.(s).Network.sv_products)))
  in
  Assignment.make net (fun ~host ~service -> product.(host).(service))

let case_gen =
  QCheck2.Gen.(
    let* c_seed = 0 -- 1_000_000 in
    let* hosts = 1 -- 12 in
    let* zero_sim = frequency [ (1, return true); (3, return false) ] in
    let* strategy =
      oneofl
        [ Engine.Best_exploit; Engine.Uniform_exploit; Engine.Arsenal_exploit ]
    in
    let* sim_floor = oneofl [ 0.0; Engine.default_sim_floor ] in
    let* attempt_scale = oneofl [ 1.0; Engine.default_attempt_scale ] in
    let* max_ticks = oneofl [ 1; 2; 3; 6; 10_000 ] in
    let* entry = 0 -- (hosts - 1) in
    let* target = frequency [ (1, return entry); (4, 0 -- (hosts - 1)) ] in
    let* run_seed = 0 -- 1_000_000 in
    let* runs = 1 -- 8 in
    let* detect_rate = oneofl [ 0.0; 0.2; 1.0 ] in
    let* immunize = bool in
    return
      { c_seed; hosts; zero_sim; strategy; sim_floor; attempt_scale; max_ticks;
        entry; target; run_seed; runs; detect_rate; immunize })

let engine_counters =
  List.map Obs.Counter.make
    [ "engine.ticks"; "engine.exploit_attempts"; "engine.infections" ]

(* [f ()] with the engine.* counter deltas it caused *)
let with_deltas f =
  let before = List.map Obs.Counter.value engine_counters in
  let x = f () in
  (x, List.map2 ( - ) (List.map Obs.Counter.value engine_counters) before)

let tallies (t : Engine_oracle.tally) = [ t.ticks; t.attempts; t.infections ]

let agree what pp expected actual =
  if expected <> actual then
    QCheck2.Test.fail_reportf "%s: oracle %s, engine %s" what (pp expected)
      (pp actual)

let pp_opt = function None -> "None" | Some t -> Printf.sprintf "Some %d" t
let pp_ints xs = String.concat ";" (List.map string_of_int xs)
let pp_arr xs = pp_ints (Array.to_list xs)

(* same result, same engine.* deltas, and the rngs left in the same
   state: the next draw is equal *)
let agree_run what ~rng_o ~rng_e pp (expected, tally) (actual, deltas) =
  agree (what ^ " result") pp expected actual;
  agree (what ^ " counters") pp_ints (tallies tally) deltas;
  agree (what ^ " next draw") string_of_int (Random.State.bits rng_o)
    (Random.State.bits rng_e)

let prop_kernel_matches_oracle =
  QCheck2.Test.make ~count:500 ~print:print_case
    ~name:"kernel matches the reference tick loop draw for draw" case_gen
    (fun c ->
      let a = build_case c in
      let { strategy; sim_floor; attempt_scale; max_ticks; entry; target; _ } =
        c
      in
      let defense =
        { Engine.detect_rate = c.detect_rate; immunize = c.immunize }
      in
      let was_enabled = Obs.enabled () in
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) @@ fun () ->
      (* one run, fresh workspace *)
      let rng_o = rng c.run_seed and rng_e = rng c.run_seed in
      let tally = Engine_oracle.tally () in
      let expected =
        Engine_oracle.run ~tally ~rng:rng_o ~strategy ~attempt_scale ~sim_floor
          ~max_ticks a ~entry ~target
      in
      agree_run "run" ~rng_o ~rng_e pp_opt (expected, tally)
        (with_deltas (fun () ->
             Engine.run ~rng:rng_e ~strategy ~attempt_scale ~sim_floor
               ~max_ticks a ~entry ~target));
      (* a batch on one reused workspace *)
      let rng_o = rng c.run_seed and rng_e = rng c.run_seed in
      let tally = Engine_oracle.tally () in
      let expected =
        List.filter_map Fun.id
          (List.init c.runs (fun _ ->
               Engine_oracle.run ~tally ~rng:rng_o ~strategy ~attempt_scale
                 ~sim_floor ~max_ticks a ~entry ~target))
      in
      agree_run "mttc_samples" ~rng_o ~rng_e pp_ints (expected, tally)
        (with_deltas (fun () ->
             Array.to_list
               (Engine.mttc_samples ~rng:rng_e ~strategy ~attempt_scale
                  ~sim_floor ~max_ticks ~runs:c.runs a ~entry ~target)));
      (* per-index rngs, any domain count *)
      let tally = Engine_oracle.tally () in
      let expected =
        List.filter_map Fun.id
          (List.init c.runs (fun i ->
               Engine_oracle.run ~tally
                 ~rng:(Random.State.make [| c.run_seed; i |])
                 ~strategy ~attempt_scale ~sim_floor ~max_ticks a ~entry
                 ~target))
      in
      let sum = List.fold_left ( + ) 0 expected in
      let pp_stats (s, mean) = Printf.sprintf "%d successes, mean %h" s mean in
      let expected_stats =
        ( List.length expected,
          if expected = [] then nan
          else float_of_int sum /. float_of_int (List.length expected) )
      in
      List.iter
        (fun domains ->
          let stats, deltas =
            with_deltas (fun () ->
                Engine.mttc_parallel ~domains ~seed:c.run_seed ~strategy
                  ~attempt_scale ~sim_floor ~max_ticks ~runs:c.runs a ~entry
                  ~target ())
          in
          let got = (stats.Engine.successes, stats.Engine.mean_ticks) in
          if
            fst got <> fst expected_stats
            || not (Float.equal (snd got) (snd expected_stats))
          then
            QCheck2.Test.fail_reportf
              "mttc_parallel (%d domains): oracle %s, engine %s"
              domains (pp_stats expected_stats) (pp_stats got);
          agree "mttc_parallel counters" pp_ints (tallies tally) deltas)
        [ 1; 3 ];
      (* the epidemic curve *)
      let rng_o = rng c.run_seed and rng_e = rng c.run_seed in
      let tally = Engine_oracle.tally () in
      let expected =
        Engine_oracle.epidemic_curve ~tally ~rng:rng_o ~strategy ~attempt_scale
          ~sim_floor ~max_ticks a ~entry
      in
      agree_run "epidemic_curve" ~rng_o ~rng_e pp_arr (expected, tally)
        (with_deltas (fun () ->
             Engine.epidemic_curve ~rng:rng_e ~strategy ~attempt_scale
               ~sim_floor ~max_ticks a ~entry));
      (* defended runs keep the full host-order scan *)
      let rng_o = rng c.run_seed and rng_e = rng c.run_seed in
      let tally = Engine_oracle.tally () in
      let expected =
        List.init c.runs (fun _ ->
            Engine_oracle.run_defended ~tally ~rng:rng_o ~strategy
              ~attempt_scale ~sim_floor ~max_ticks ~defense a ~entry ~target)
      in
      agree_run "run_defended" ~rng_o ~rng_e
        (fun rs -> String.concat ";" (List.map pp_opt rs))
        (expected, tally)
        (with_deltas (fun () ->
             List.init c.runs (fun _ ->
                 Engine.run_defended ~rng:rng_e ~strategy ~attempt_scale
                   ~sim_floor ~max_ticks ~defense a ~entry ~target)));
      true)

(* long batches (300 runs, one workspace) on 12-host graphs: hundreds
   of workspace resets, each after a different infection history *)
let test_long_batch_matches_oracle () =
  List.iter
    (fun (c_seed, strategy) ->
      let c =
        { c_seed; hosts = 12; zero_sim = false; strategy; sim_floor = 0.05;
          attempt_scale = 0.3; max_ticks = 10_000; entry = 0; target = 11;
          run_seed = c_seed; runs = 300; detect_rate = 0.0; immunize = false }
      in
      let { sim_floor; attempt_scale; max_ticks; entry; target; runs; _ } = c in
      let a = build_case c in
      let rng_o = rng c.run_seed and rng_e = rng c.run_seed in
      let tally = Engine_oracle.tally () in
      let expected =
        List.filter_map Fun.id
          (List.init runs (fun _ ->
               Engine_oracle.run ~tally ~rng:rng_o ~strategy ~attempt_scale
                 ~sim_floor ~max_ticks a ~entry ~target))
      in
      let got =
        Engine.mttc_samples ~rng:rng_e ~strategy ~attempt_scale ~sim_floor
          ~max_ticks ~runs a ~entry ~target
      in
      Alcotest.(check (list int)) (print_case c) expected (Array.to_list got);
      Alcotest.(check int) "next draw" (Random.State.bits rng_o)
        (Random.State.bits rng_e))
    [ (3, Engine.Best_exploit); (4, Engine.Uniform_exploit);
      (5, Engine.Arsenal_exploit); (6, Engine.Best_exploit) ]

(* property: MTTC can never beat the BFS distance *)
let prop_mttc_at_least_distance =
  QCheck2.Test.make ~count:30 ~name:"compromise time >= hop distance"
    QCheck2.Gen.(pair (2 -- 20) (0 -- 10_000))
    (fun (n, seed) ->
      let net = line_net ~n () in
      let a = mono net in
      match
        Engine.run ~rng:(rng seed) ~attempt_scale:0.9 a ~entry:0
          ~target:(n - 1)
      with
      | None -> true
      | Some t -> t >= n - 1)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "entry is target" `Quick test_entry_is_target;
          Alcotest.test_case "deterministic under seed" `Quick
            test_deterministic_under_seed;
          Alcotest.test_case "certain infection speed" `Quick
            test_certain_infection_speed;
          Alcotest.test_case "zero rate blocks" `Quick test_zero_rate_blocks;
          Alcotest.test_case "dead worm terminates early" `Quick
            test_dead_worm_terminates_early;
          Alcotest.test_case "mttc statistics" `Quick test_mttc_stats;
          Alcotest.test_case "diversity slows compromise" `Quick
            test_mttc_diversity_slows;
          Alcotest.test_case "uniform vs reconnaissance attacker" `Quick
            test_uniform_vs_best_strategy;
          Alcotest.test_case "epidemic curve monotone" `Quick
            test_epidemic_curve_monotone;
          Alcotest.test_case "invalid entry rejected" `Quick
            test_invalid_entry;
        ]
        @ endpoint_tests );
      ( "stat",
        [
          Alcotest.test_case "basics" `Quick test_stat_basics;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stat_percentile_interpolation;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "static arsenal weaker than adaptive" `Quick
            test_arsenal_weaker_than_adaptive;
          Alcotest.test_case "samples and summary" `Quick
            test_mttc_samples_and_summary;
          Alcotest.test_case "parallel matches sequential" `Quick
            test_mttc_parallel_matches_domains;
          Alcotest.test_case "mttc parallel uniform exploit" `Quick
            test_mttc_parallel_uniform_exploit;
          Alcotest.test_case "mttc parallel under chunk faults" `Quick
            test_mttc_parallel_chunk_faults;
          Alcotest.test_case "long batch matches the oracle" `Quick
            test_long_batch_matches_oracle;
        ] );
      ( "defense",
        [
          Alcotest.test_case "zero detection = undefended" `Quick
            test_defended_zero_rate_is_undefended;
          Alcotest.test_case "perfect detection contains" `Quick
            test_defended_perfect_detection_contains;
          Alcotest.test_case "containment monotone in rate" `Quick
            test_defended_rate_monotone;
          Alcotest.test_case "validation" `Quick test_defended_validation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_mttc_at_least_distance;
          QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
        ] );
    ]

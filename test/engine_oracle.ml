(* Reference worm simulator for the differential tests of
   [Netdiv_sim.Engine].

   This is the straightforward tick loop the frontier kernel replaced,
   kept verbatim in behaviour: every tick walks every infected host in
   newest-first list order and every neighbour through per-host tuple
   arrays, testing each neighbour's infection flag.  It is slow and
   allocates per run, and it is the specification of the kernel's draw
   order: the engine must make the same [Random.State] calls in the same
   order, return the same results and count the same ticks, attempts
   and infections.  Instead of bumping the [engine.*] counters the
   oracle accumulates its tallies in a [tally] record, so the tests can
   compare them with the engine's counter deltas. *)

module Engine = Netdiv_sim.Engine
module Graph = Netdiv_graph.Graph
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment

type tally = {
  mutable ticks : int;
  mutable attempts : int;
  mutable infections : int;
}

let tally () = { ticks = 0; attempts = 0; infections = 0 }

let shared_similarities a u v =
  let net = Assignment.network a in
  let su = Network.host_services net u in
  let sv = Network.host_services net v in
  let acc = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length su && !j < Array.length sv do
    if su.(!i) = sv.(!j) then begin
      let s = su.(!i) in
      acc :=
        Network.similarity net ~service:s
          (Assignment.get a ~host:u ~service:s)
          (Assignment.get a ~host:v ~service:s)
        :: !acc;
      incr i;
      incr j
    end
    else if su.(!i) < sv.(!j) then incr i
    else incr j
  done;
  !acc

let shared_service_ids a u v =
  let net = Assignment.network a in
  let su = Network.host_services net u in
  let sv = Network.host_services net v in
  let acc = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length su && !j < Array.length sv do
    if su.(!i) = sv.(!j) then begin
      acc := su.(!i) :: !acc;
      incr i;
      incr j
    end
    else if su.(!i) < sv.(!j) then incr i
    else incr j
  done;
  !acc

type rates =
  | Fixed of (int * float) array array
  | Pooled of (int * float * float array) array array

let prepare ~attempt_scale ~sim_floor ~entry a strategy =
  let net = Assignment.network a in
  let g = Network.graph net in
  let tabulate rate_of =
    Fixed
      (Array.init (Graph.n_nodes g) (fun u ->
           Array.map (fun v -> (v, rate_of u v)) (Graph.neighbors g u)))
  in
  match (strategy : Engine.strategy) with
  | Uniform_exploit ->
      Pooled
        (Array.init (Graph.n_nodes g) (fun u ->
             Array.map
               (fun v ->
                 let sims = shared_similarities a u v in
                 let potential =
                   match sims with
                   | [] -> 0.0
                   | sims ->
                       attempt_scale
                       *. List.fold_left
                            (fun acc s -> max acc (max sim_floor s))
                            0.0 sims
                 in
                 let pool =
                   Array.of_list
                     (List.map
                        (fun s -> attempt_scale *. max sim_floor s)
                        sims)
                 in
                 (v, potential, pool))
               (Graph.neighbors g u)))
  | Best_exploit ->
      tabulate (fun u v ->
          match shared_similarities a u v with
          | [] -> 0.0
          | sims ->
              attempt_scale
              *. List.fold_left
                   (fun acc s -> max acc (max sim_floor s))
                   0.0 sims)
  | Arsenal_exploit ->
      let arsenal_services = Network.host_services net entry in
      let arsenal s = Assignment.get a ~host:entry ~service:s in
      tabulate (fun u v ->
          let rate = ref 0.0 in
          List.iter
            (fun s ->
              if Array.exists (fun x -> x = s) arsenal_services then begin
                let victim = Assignment.get a ~host:v ~service:s in
                let sim =
                  max sim_floor
                    (Network.similarity net ~service:s (arsenal s) victim)
                in
                if attempt_scale *. sim > !rate then
                  rate := attempt_scale *. sim
              end)
            (shared_service_ids a u v);
          !rate)

(* [on_tick tick infected] sees the infection flags after each tick. *)
let simulate ~tally ~rng ~max_ticks ~rates a ~entry ~on_tick ~stop =
  let net = Assignment.network a in
  let g = Network.graph net in
  let n = Graph.n_nodes g in
  let infected = Array.make n false in
  infected.(entry) <- true;
  if stop entry then Some 0
  else begin
    let infected_list = ref [ entry ] in
    let result = ref None in
    let alive = ref true in
    let tick = ref 0 in
    let attempts = ref 0 in
    let infections = ref 0 in
    while !result = None && !alive && !tick < max_ticks do
      incr tick;
      let newly = ref [] in
      let progress_possible = ref false in
      let attack v ~potential rate =
        if not infected.(v) then begin
          if potential > 0.0 then progress_possible := true;
          if rate > 0.0 then begin
            incr attempts;
            if Random.State.float rng 1.0 < rate then newly := v :: !newly
          end
        end
      in
      List.iter
        (fun u ->
          match rates with
          | Fixed nr ->
              Array.iter
                (fun (v, rate) -> attack v ~potential:rate rate)
                nr.(u)
          | Pooled nr ->
              Array.iter
                (fun (v, potential, pool) ->
                  if not infected.(v) then begin
                    let rate =
                      if Array.length pool = 0 then 0.0
                      else pool.(Random.State.int rng (Array.length pool))
                    in
                    attack v ~potential rate
                  end)
                nr.(u))
        !infected_list;
      List.iter
        (fun v ->
          if not infected.(v) then begin
            infected.(v) <- true;
            incr infections;
            infected_list := v :: !infected_list;
            if !result = None && stop v then result := Some !tick
          end)
        !newly;
      on_tick !tick infected;
      if not !progress_possible then alive := false
    done;
    tally.ticks <- tally.ticks + !tick;
    tally.attempts <- tally.attempts + !attempts;
    tally.infections <- tally.infections + !infections;
    !result
  end

let run ~tally ~rng ~strategy ~attempt_scale ~sim_floor ~max_ticks a ~entry
    ~target =
  let rates = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  simulate ~tally ~rng ~max_ticks ~rates a ~entry
    ~on_tick:(fun _ _ -> ())
    ~stop:(fun h -> h = target)

let epidemic_curve ~tally ~rng ~strategy ~attempt_scale ~sim_floor ~max_ticks
    a ~entry =
  let counts = ref [] in
  let rates = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  ignore
    (simulate ~tally ~rng ~max_ticks ~rates a ~entry
       ~on_tick:(fun _ infected ->
         let c =
           Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0
             infected
         in
         counts := c :: !counts)
       ~stop:(fun _ -> false));
  let arr = Array.of_list (List.rev !counts) in
  let n = Array.length arr in
  let last_growth = ref 0 in
  for i = 1 to n - 1 do
    if arr.(i) > arr.(i - 1) then last_growth := i
  done;
  Array.sub arr 0 (min n (!last_growth + 2))

type host_status = Susceptible | Infected | Immune

let simulate_defended ~tally ~rng ~max_ticks ~(defense : Engine.defense)
    ~rates a ~entry ~target =
  let net = Assignment.network a in
  let g = Network.graph net in
  let n = Graph.n_nodes g in
  let status = Array.make n Susceptible in
  status.(entry) <- Infected;
  if entry = target then Some 0
  else begin
    let result = ref None in
    let extinct = ref false in
    let tick = ref 0 in
    let attempts = ref 0 in
    let infections = ref 0 in
    while !result = None && (not !extinct) && !tick < max_ticks do
      incr tick;
      let newly = ref [] in
      let any_infected = ref false in
      for u = 0 to n - 1 do
        if status.(u) = Infected then begin
          any_infected := true;
          let attack v rate =
            if status.(v) = Susceptible && rate > 0.0 then begin
              incr attempts;
              if Random.State.float rng 1.0 < rate then newly := v :: !newly
            end
          in
          match rates with
          | Fixed nr -> Array.iter (fun (v, rate) -> attack v rate) nr.(u)
          | Pooled nr ->
              Array.iter
                (fun (v, _potential, pool) ->
                  if status.(v) = Susceptible then begin
                    let rate =
                      if Array.length pool = 0 then 0.0
                      else pool.(Random.State.int rng (Array.length pool))
                    in
                    attack v rate
                  end)
                nr.(u)
        end
      done;
      if not !any_infected then extinct := true;
      List.iter
        (fun v ->
          if status.(v) = Susceptible then begin
            status.(v) <- Infected;
            incr infections;
            if !result = None && v = target then result := Some !tick
          end)
        !newly;
      if !result = None && defense.detect_rate > 0.0 then
        for h = 0 to n - 1 do
          if
            status.(h) = Infected
            && Random.State.float rng 1.0 < defense.detect_rate
          then status.(h) <- (if defense.immunize then Immune else Susceptible)
        done
    done;
    tally.ticks <- tally.ticks + !tick;
    tally.attempts <- tally.attempts + !attempts;
    tally.infections <- tally.infections + !infections;
    !result
  end

let run_defended ~tally ~rng ~strategy ~attempt_scale ~sim_floor ~max_ticks
    ~defense a ~entry ~target =
  let rates = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  simulate_defended ~tally ~rng ~max_ticks ~defense ~rates a ~entry ~target

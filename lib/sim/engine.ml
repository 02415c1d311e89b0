module Graph = Netdiv_graph.Graph
module Network = Netdiv_core.Network
module Assignment = Netdiv_core.Assignment
module Obs = Netdiv_obs.Obs

(* Worm telemetry: per-simulation tallies are local ints flushed with
   one atomic add each when the run ends, so batched/parallel MTTC runs
   never contend inside the tick loop. *)
let c_ticks = Obs.Counter.make "engine.ticks"
let c_attempts = Obs.Counter.make "engine.exploit_attempts"
let c_infections = Obs.Counter.make "engine.infections"

type strategy = Best_exploit | Uniform_exploit | Arsenal_exploit

let default_attempt_scale = 0.15
let default_sim_floor = 0.05

type mttc_stats = {
  runs : int;
  successes : int;
  mean_ticks : float;
  max_ticks : int;
}

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

(* Flat rate table, built once per simulation batch.  Kept out-edges are
   stored in CSR form ([off]/[nbr]), in [Graph.neighbors] order, and
   only edges that can ever draw or signal progress are kept: a
   fixed-rate edge with a positive rate, or a [Uniform_exploit] edge
   with a non-empty pool.  A dropped edge was a no-op in every tick (no
   draw, no liveness), so dropping it leaves the draw sequence
   untouched.  [rate] holds the attempt rate, or under [pooled] the
   edge's best-case rate, which then only decides worm liveness; a
   pooled edge's scaled per-service rates sit in one flat [pool], and
   each attempt picks one of them uniformly.  [in_off]/[in_edge] index
   the kept edges by victim, so an infection can unlink its victim from
   every attacker's list. *)
type table = {
  n : int;
  off : int array;  (* out-edges of [u]: [off.(u) .. off.(u+1) - 1] *)
  nbr : int array;  (* victim of each edge *)
  rate : floatarray;
  in_off : int array;  (* in-edges of [v]: [in_edge.(in_off.(v) ..)] *)
  in_edge : int array;
  pooled : bool;
  pool_off : int array;  (* edge [e]'s pool: [pool.(pool_off.(e) ..)] *)
  pool : floatarray;
}

let best_rate ~attempt_scale ~sim_floor = function
  | [] -> 0.0
  | sims ->
      attempt_scale
      *. List.fold_left (fun acc s -> max acc (max sim_floor s)) 0.0 sims

let prepare ~attempt_scale ~sim_floor ~entry a strategy =
  let net = Assignment.network a in
  let g = Network.graph net in
  let n = Graph.n_nodes g in
  let pooled = strategy = Uniform_exploit in
  let cap = 2 * Graph.n_edges g in
  let off = Array.make (n + 1) 0 in
  let nbr = Array.make cap 0 and rate = Float.Array.make cap 0.0 in
  (* a pool holds one rate per shared service *)
  let pool_off = Array.make (if pooled then cap + 1 else 0) 0 in
  let pool =
    Float.Array.make (if pooled then cap * Network.n_services net else 0) 0.0
  in
  let m = ref 0 and pool_len = ref 0 in
  let keep v r =
    nbr.(!m) <- v;
    Float.Array.set rate !m r;
    incr m
  in
  let keep_positive v r = if r > 0.0 then keep v r in
  let add_edge =
    match strategy with
    | Uniform_exploit -> (
        fun u v ->
          match shared_similarities a u v with
          | [] -> ()
          | sims ->
              List.iter
                (fun s ->
                  Float.Array.set pool !pool_len
                    (attempt_scale *. max sim_floor s);
                  incr pool_len)
                sims;
              keep v (best_rate ~attempt_scale ~sim_floor sims);
              pool_off.(!m) <- !pool_len)
    | Best_exploit ->
        fun u v ->
          keep_positive v
            (best_rate ~attempt_scale ~sim_floor (shared_similarities a u v))
    | Arsenal_exploit ->
        (* the worm carries one zero-day per service, forged for the entry
           host's products (the paper's "three unique zero-day exploits"),
           and cannot adapt: a hop succeeds with the similarity between the
           arsenal's product and the victim's *)
        let arsenal_services = Network.host_services net entry in
        let arsenal s = Assignment.get a ~host:entry ~service:s in
        fun u v ->
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
          keep_positive v !rate
  in
  for u = 0 to n - 1 do
    Array.iter (add_edge u) (Graph.neighbors g u);
    off.(u + 1) <- !m
  done;
  let m = !m in
  (* in-edges grouped by victim, ascending edge id within a victim *)
  let in_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    in_off.(nbr.(e) + 1) <- in_off.(nbr.(e) + 1) + 1
  done;
  for v = 0 to n - 1 do
    in_off.(v + 1) <- in_off.(v + 1) + in_off.(v)
  done;
  let fill = Array.sub in_off 0 n in
  let in_edge = Array.make m 0 in
  for e = 0 to m - 1 do
    let v = nbr.(e) in
    in_edge.(fill.(v)) <- e;
    fill.(v) <- fill.(v) + 1
  done;
  {
    n;
    off;
    nbr = Array.sub nbr 0 m;
    rate = Float.Array.sub rate 0 m;
    in_off;
    in_edge;
    pooled;
    pool_off = (if pooled then Array.sub pool_off 0 (m + 1) else [||]);
    pool = Float.Array.sub pool 0 !pool_len;
  }

(* This attempt's rate on kept edge [e]: the fixed rate, or a uniform
   pick from the edge's pool (one [Random.State.int] draw). *)
let attempt_rate t rng e =
  if t.pooled then
    let lo = t.pool_off.(e) in
    Float.Array.get t.pool (lo + Random.State.int rng (t.pool_off.(e + 1) - lo))
  else Float.Array.get t.rate e

(* Per-run state, allocated once per batch (once per block in
   [mttc_parallel]) and reused.  [next]/[prev] thread, for each host
   [u], a circular doubly linked list through its still-susceptible
   out-edges in table order, closed by the sentinel node [m + u] ([m]
   kept edges; every node [>= m] is a sentinel).  Infecting [v] unlinks
   [v]'s in-edges; [reset] relinks them in exactly the reverse order
   (the dancing-links undo), so a reset costs what the previous run
   touched, never a full re-initialisation.  [order] records the run's
   infections for that undo; [stack] is the frontier of infected hosts
   that still have a susceptible neighbour, newest on top; [newly]
   collects one tick's successful attempts, at most one per kept edge. *)
type workspace = {
  m : int;
  infected : Bytes.t;
  next : int array;
  prev : int array;
  order : int array;
  mutable n_infected : int;
  stack : int array;
  newly : int array;
}

let workspace t =
  let m = t.off.(t.n) in
  let next = Array.make (m + t.n) 0 and prev = Array.make (m + t.n) 0 in
  for u = 0 to t.n - 1 do
    let lo = t.off.(u) and hi = t.off.(u + 1) in
    let s = m + u in
    next.(s) <- (if lo < hi then lo else s);
    prev.(s) <- (if lo < hi then hi - 1 else s);
    for e = lo to hi - 1 do
      next.(e) <- (if e + 1 < hi then e + 1 else s);
      prev.(e) <- (if e > lo then e - 1 else s)
    done
  done;
  {
    m;
    infected = Bytes.make t.n '\000';
    next;
    prev;
    order = Array.make t.n 0;
    n_infected = 0;
    stack = Array.make t.n 0;
    newly = Array.make (max 1 m) 0;
  }

let infect t ws v =
  Bytes.set ws.infected v '\001';
  ws.order.(ws.n_infected) <- v;
  ws.n_infected <- ws.n_infected + 1;
  for k = t.in_off.(v) to t.in_off.(v + 1) - 1 do
    let e = t.in_edge.(k) in
    let p = ws.prev.(e) and x = ws.next.(e) in
    ws.next.(p) <- x;
    ws.prev.(x) <- p
  done

let reset t ws =
  for i = ws.n_infected - 1 downto 0 do
    let v = ws.order.(i) in
    Bytes.set ws.infected v '\000';
    for k = t.in_off.(v + 1) - 1 downto t.in_off.(v) do
      let e = t.in_edge.(k) in
      ws.next.(ws.prev.(e)) <- e;
      ws.prev.(ws.next.(e)) <- e
    done
  done;
  ws.n_infected <- 0

(* One run on a reused workspace.  The draw order is the contract that
   keeps every seeded result stable: per tick, infected hosts are
   visited newest infection first; each host's susceptible out-edges in
   adjacency order; each such edge draws one [Random.State.int] for a
   pooled pick, then one [Random.State.float] when the attempt's rate is
   positive.  Infections take effect at the end of the tick, committed
   latest success first.  A host leaves the frontier once its list is
   empty: it could never draw again.  The tick in which no susceptible
   edge has a positive best-case rate is still counted, and the worm
   dies after it.  A negative [target] never falls. *)
let simulate ~rng ~max_ticks t ws ~entry ~target ~on_tick =
  reset t ws;
  infect t ws entry;
  if entry = target then Some 0
  else begin
    let m = ws.m and next = ws.next and stack = ws.stack and newly = ws.newly in
    stack.(0) <- entry;
    let base = ref 0 and top = ref 1 in
    let result = ref None in
    let alive = ref true in
    let tick = ref 0 in
    let attempts = ref 0 in
    let infections = ref 0 in
    while Option.is_none !result && !alive && !tick < max_ticks do
      incr tick;
      let n_new = ref 0 in
      let progress = ref false in
      (* frontier survivors are compacted towards the top, in order *)
      let w = ref (!top - 1) in
      for i = !top - 1 downto !base do
        let u = stack.(i) in
        let e = ref next.(m + u) in
        if !e < m then begin
          stack.(!w) <- u;
          decr w
        end;
        if t.pooled then
          while !e < m do
            let k = !e in
            let rate = attempt_rate t rng k in
            if Float.Array.get t.rate k > 0.0 then progress := true;
            if rate > 0.0 then begin
              incr attempts;
              if Random.State.float rng 1.0 < rate then begin
                newly.(!n_new) <- t.nbr.(k);
                incr n_new
              end
            end;
            e := next.(k)
          done
        else begin
          (* a kept fixed-rate edge has a positive rate: it draws, and
             it keeps the worm alive *)
          if !e < m then progress := true;
          while !e < m do
            let k = !e in
            incr attempts;
            if Random.State.float rng 1.0 < Float.Array.get t.rate k then begin
              newly.(!n_new) <- t.nbr.(k);
              incr n_new
            end;
            e := next.(k)
          done
        end
      done;
      base := !w + 1;
      for i = !n_new - 1 downto 0 do
        let v = newly.(i) in
        if Bytes.get ws.infected v = '\000' then begin
          infect t ws v;
          incr infections;
          stack.(!top) <- v;
          incr top;
          if Option.is_none !result && v = target then result := Some !tick
        end
      done;
      on_tick !tick (1 + !infections);
      if not !progress then alive := false
    done;
    Obs.Counter.add c_ticks !tick;
    Obs.Counter.add c_attempts !attempts;
    Obs.Counter.add c_infections !infections;
    !result
  end

let check_entry a ~entry =
  let n = Network.n_hosts (Assignment.network a) in
  if entry < 0 || entry >= n then invalid_arg "Engine: entry out of range"

(* [prepare] reads the entry host's services (Arsenal), so every public
   entry point validates the endpoints before it. *)
let check_endpoints a ~entry ~target =
  check_entry a ~entry;
  let n = Network.n_hosts (Assignment.network a) in
  if target < 0 || target >= n then invalid_arg "Engine: target out of range"

let no_tick _ _ = ()

let run ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) a ~entry ~target =
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  simulate ~rng ~max_ticks t (workspace t) ~entry ~target ~on_tick:no_tick

let mttc_samples ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~runs a ~entry
    ~target =
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  let ws = workspace t in
  let samples = ref [] in
  for _ = 1 to runs do
    match simulate ~rng ~max_ticks t ws ~entry ~target ~on_tick:no_tick with
    | Some ticks -> samples := ticks :: !samples
    | None -> ()
  done;
  Array.of_list (List.rev !samples)

let stats_of_samples ~runs ~max_ticks samples =
  let successes = Array.length samples in
  {
    runs;
    successes;
    mean_ticks =
      (if successes = 0 then nan
       else
         float_of_int (Array.fold_left ( + ) 0 samples)
         /. float_of_int successes);
    max_ticks;
  }

let mttc ~rng ?strategy ?attempt_scale ?sim_floor ?(max_ticks = 10_000) ~runs
    a ~entry ~target =
  let samples =
    mttc_samples ~rng ?strategy ?attempt_scale ?sim_floor ~max_ticks ~runs a
      ~entry ~target
  in
  stats_of_samples ~runs ~max_ticks samples

let mttc_summary ~rng ?strategy ?attempt_scale ?sim_floor
    ?(max_ticks = 10_000) ~runs a ~entry ~target =
  let samples =
    mttc_samples ~rng ?strategy ?attempt_scale ?sim_floor ~max_ticks ~runs a
      ~entry ~target
  in
  let stats = stats_of_samples ~runs ~max_ticks samples in
  let summary =
    if Array.length samples = 0 then None
    else Some (Stat.summarize (Stat.of_ints samples))
  in
  (stats, summary)

(* Parallel MTTC: every run draws its own rng from (seed, index), so the
   results are identical for any domain count and any split of the runs.
   The runs are split into contiguous blocks, one pool chunk each, and a
   block owns one workspace: a chunk the pool re-executes after an
   injected crash builds a fresh one. *)
let mttc_parallel ?(domains = 4) ~seed ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~runs a ~entry
    ~target () =
  if domains < 1 then invalid_arg "Engine.mttc_parallel: domains < 1";
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  let total = max 0 runs in
  (* one block per domain: a workspace is O(hosts + edges) words, and
     more blocks would only add garbage workspaces *)
  let blocks = max 1 (min total domains) in
  let block b =
    let lo = b * total / blocks and hi = (b + 1) * total / blocks in
    let ws = workspace t in
    Array.init (hi - lo) (fun k ->
        let rng = Random.State.make [| seed; lo + k |] in
        simulate ~rng ~max_ticks t ws ~entry ~target ~on_tick:no_tick)
  in
  (* Cost hint per run, in the pool's ~ns units: 500/host.  Measured per
     run and host with this kernel (2-core host): 110-130 on scaled_ics
     (3,200 hosts; runs stop at the target), 170-200 on the case study,
     1,000-1,400 on random_frustrated (10k hosts, degree 10).  500 lies
     inside that range, so it stays.  The hint decides only whether the
     blocks run inline or on domains, never the results. *)
  let per_run = 500 * t.n in
  let results =
    Netdiv_par.Pool.map_range ~jobs:domains ~chunks:blocks
      ~cost:(per_run * (total / blocks)) ~lo:0 ~hi:blocks block
  in
  let runs_in_order = Array.to_list (Array.concat (Array.to_list results)) in
  let samples = Array.of_list (List.filter_map Fun.id runs_in_order) in
  stats_of_samples ~runs ~max_ticks samples

let epidemic_curve ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) a ~entry =
  check_entry a ~entry;
  let counts = ref [] in
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  ignore
    (simulate ~rng ~max_ticks t (workspace t) ~entry ~target:(-1)
       ~on_tick:(fun _ infected -> counts := infected :: !counts));
  (* trim the trailing plateau the cap produced *)
  let arr = Array.of_list (List.rev !counts) in
  let n = Array.length arr in
  let last_growth = ref 0 in
  for i = 1 to n - 1 do
    if arr.(i) > arr.(i - 1) then last_growth := i
  done;
  Array.sub arr 0 (min n (!last_growth + 2))

(* ----------------------------------------------------- defended runs *)

type defense = { detect_rate : float; immunize : bool }

let susceptible = '\000'
let infected = '\001'
let immune = '\002'

(* Like [simulate], but a defender detects and reimages infected hosts;
   the worm loses when no infected host remains.  A reimaged host can
   become susceptible again, so this loop keeps a full host-order scan
   over the flat table instead of the frontier. *)
let simulate_defended ~rng ~max_ticks ~defense t ~entry ~target =
  if not (defense.detect_rate >= 0.0 && defense.detect_rate <= 1.0) then
    invalid_arg "Engine: detect_rate outside [0,1]";
  let n = t.n in
  let status = Bytes.make n susceptible in
  Bytes.set status entry infected;
  if entry = target then Some 0
  else begin
    let result = ref None in
    let extinct = ref false in
    let tick = ref 0 in
    let attempts = ref 0 in
    let infections = ref 0 in
    while Option.is_none !result && (not !extinct) && !tick < max_ticks do
      incr tick;
      let newly = ref [] in
      let any_infected = ref false in
      for u = 0 to n - 1 do
        if Bytes.get status u = infected then begin
          any_infected := true;
          for e = t.off.(u) to t.off.(u + 1) - 1 do
            let v = t.nbr.(e) in
            if Bytes.get status v = susceptible then begin
              let rate = attempt_rate t rng e in
              if rate > 0.0 then begin
                incr attempts;
                if Random.State.float rng 1.0 < rate then newly := v :: !newly
              end
            end
          done
        end
      done;
      if not !any_infected then extinct := true;
      List.iter
        (fun v ->
          if Bytes.get status v = susceptible then begin
            Bytes.set status v infected;
            incr infections;
            if Option.is_none !result && v = target then result := Some !tick
          end)
        !newly;
      (* detection & response *)
      if Option.is_none !result && defense.detect_rate > 0.0 then
        for h = 0 to n - 1 do
          if
            Bytes.get status h = infected
            && Random.State.float rng 1.0 < defense.detect_rate
          then
            Bytes.set status h
              (if defense.immunize then immune else susceptible)
        done
    done;
    Obs.Counter.add c_ticks !tick;
    Obs.Counter.add c_attempts !attempts;
    Obs.Counter.add c_infections !infections;
    !result
  end

let run_defended ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~defense a ~entry
    ~target =
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  simulate_defended ~rng ~max_ticks ~defense t ~entry ~target

let mttc_defended ~rng ?(strategy = Best_exploit)
    ?(attempt_scale = default_attempt_scale)
    ?(sim_floor = default_sim_floor) ?(max_ticks = 10_000) ~defense ~runs a
    ~entry ~target =
  check_endpoints a ~entry ~target;
  let t = prepare ~attempt_scale ~sim_floor ~entry a strategy in
  let samples = ref [] in
  for _ = 1 to runs do
    match simulate_defended ~rng ~max_ticks ~defense t ~entry ~target with
    | Some ticks -> samples := ticks :: !samples
    | None -> ()
  done;
  stats_of_samples ~runs ~max_ticks (Array.of_list (List.rev !samples))

let pp_mttc ppf s =
  Format.fprintf ppf "MTTC %.3f ticks (%d/%d runs reached the target)"
    s.mean_ticks s.successes s.runs

module W = Workloads
module Obs = Netdiv_obs.Obs

type direction = Lower | Higher

type metric = {
  m_name : string;
  value : float;
  unit_ : string;
  better : direction;
  note : string;
}

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** what the final JSON line carries *)
  report : string list;  (** human-readable lines printed before it *)
  fingerprint : string;  (** the first pass's energies, MTTC and d_bn *)
}

let metric ?(note = "") m_name unit_ better value = { m_name; value; unit_; better; note }

let hostname () = try Unix.gethostname () with Unix.Unix_error _ -> "unknown"

let read_trimmed path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

(* The checkout's commit, read from .git without running git; "unknown"
   outside a repository. *)
let commit () =
  match read_trimmed ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_trimmed (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read_trimmed ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ c; name ] when name = r -> Some c
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | Some c -> c

(* Generation is repeated until it has taken [min_total] seconds and at
   least [min_reps] times, in blocks of at least [block_s] seconds with
   the reference computation before and after each block (see
   {!Calib}); [setup_s] is the median repetition's normalized CPU time. *)
let min_reps = 5
let max_reps = 250
let min_total = 3.0
let block_s = 0.25

(* Each gap between samples runs the reference computation until it has
   taken [share] of the CPU time of the sample before it, and at least
   once; the first gap of a phase runs it for [first_gap] seconds. *)
let share = 0.1
let first_gap = 0.5

(* One gap: the reference computation from a collected heap, and the
   heap collected again after it, so that neither its time nor the
   next sample's carries the other's garbage. *)
let calibrate ~cpu =
  Gc.full_major ();
  let rec go acc total =
    let c = Calib.time () in
    if total +. c >= cpu then c :: acc else go (c :: acc) (total +. c)
  in
  let gap = go [] 0.0 in
  Gc.full_major ();
  gap

(* The factor that turns the CPU seconds of sample [k] into
   reference-host seconds: [Calib.nominal_s] over the median reference
   time in the two gaps on either side of it ([gaps.(k)] runs just
   before it).  Four gaps hold enough reference samples for a steady
   median even where a gap holds one, and still follow the host's
   speed from pass to pass. *)
let scale gaps k =
  let lo = max 0 (k - 1) and hi = min (Array.length gaps - 1) (k + 2) in
  Calib.nominal_s /. Stats.median (List.concat (Array.to_list (Array.sub gaps lo (hi - lo + 1))))

type setup = {
  raw : W.raw;
  reps : (Stats.elapsed * float) list;  (** per repetition, summed over its steps, and its scale *)
  calibs : float list;  (** the reference's CPU seconds in the gaps between blocks *)
  step_medians : (string * float) list;  (** median wall seconds per step *)
}

let setup w ~instance_seed =
  (* repetitions in blocks of at least [block_s]; [gaps] runs one gap
     before every block and one after the last *)
  let rec go k total block block_total blocks gaps =
    (* collect the previous repetition's inputs first, so that the
       number of repetitions does not show in [peak_heap_mb] *)
    Gc.full_major ();
    let raw, steps = W.generate w ~instance_seed in
    let sum f = List.fold_left (fun a (_, e) -> a +. f e) 0.0 steps in
    let e = { Stats.wall = sum (fun e -> e.Stats.wall); cpu = sum (fun e -> e.Stats.cpu) } in
    let block = (e, steps) :: block in
    let total = total +. e.Stats.wall and block_total = block_total +. e.Stats.wall in
    let last = k + 1 >= max_reps || (k + 1 >= min_reps && total >= min_total) in
    if last || block_total >= block_s then begin
      let block_cpu = List.fold_left (fun a (e, _) -> a +. e.Stats.cpu) 0.0 block in
      let gaps = calibrate ~cpu:(share *. block_cpu) :: gaps and blocks = List.rev block :: blocks in
      if last then (raw, List.rev blocks, Array.of_list (List.rev gaps))
      else go (k + 1) total [] 0.0 blocks gaps
    end
    else go (k + 1) total block block_total blocks gaps
  in
  let raw, blocks, gaps = go 0 0.0 [] 0.0 [] [ calibrate ~cpu:first_gap ] in
  let reps = List.concat (List.mapi (fun b -> List.map (fun r -> (r, scale gaps b))) blocks) in
  let step_medians =
    List.map
      (fun (name, _) ->
        ( name,
          Stats.median (List.map (fun ((_, st), _) -> (List.assoc name st).Stats.wall) reps) ))
      (snd (fst (List.hd reps)))
  in
  {
    raw;
    reps = List.map (fun ((e, _), sc) -> (e, sc)) reps;
    calibs = List.concat (Array.to_list gaps);
    step_medians;
  }

(* Sum of span durations of one library-internal [Obs] span name, over
   every domain (begin/end paired per recording buffer). *)
let obs_span_total name =
  let open_at = Hashtbl.create 4 in
  List.fold_left
    (fun acc (e : Obs.event) ->
      if e.Obs.name <> name then acc
      else
        match e.Obs.kind with
        | Obs.Begin ->
            Hashtbl.replace open_at e.Obs.tid e.Obs.ts;
            acc
        | Obs.End -> (
            match Hashtbl.find_opt open_at e.Obs.tid with
            | Some t0 ->
                Hashtbl.remove open_at e.Obs.tid;
                acc +. (e.Obs.ts -. t0)
            | None -> acc)
        | Obs.Instant | Obs.Sample -> acc)
    0.0 (Obs.events ())

let obs_counter name = float_of_int (Obs.Counter.value (Obs.Counter.make name))

(* One traced pass's layer attribution. *)
type traced = {
  t_pipeline : float;  (** root span duration *)
  self : (string * float) list;  (** self time per span name *)
  sums : (string * float) list;  (** recorded counts summed per name *)
  bound_s : float;
  messages : float * float * float;  (** potts, const-sparse, generic *)
  speedup : float;  (** the zoned solve's, else the MTTC batch's *)
}

(* Layers whose self time the traced run reports; the root "pass" and
   the "optimize" grouping span are the benchmark's own glue, reported
   together as [unattributed]. *)
let layers =
  [ "core.encode"; "mrf.trws"; "mrf.icm"; "core.decode"; "core.verify"; "bayes.dbn"; "sim.mttc" ]

let traced_pass inst ~seed ~pass_id =
  Trace.set_pass pass_id;
  Obs.reset ();
  Obs.set_enabled true;
  Trace.set_enabled true;
  let p =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Obs.set_enabled false)
      (fun () -> W.pass inst ~seed ~traced:true)
  in
  let jobs_checks, solve_speedup = W.jobs_check inst p in
  let p = { p with W.checks = p.W.checks @ jobs_checks } in
  let spans = List.filter (fun s -> s.Trace.pass = pass_id) (Trace.spans ()) in
  let root = List.find (fun s -> s.Trace.name = "pass") spans in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if c.Trace.c_pass = pass_id then
        let v = Option.value ~default:0.0 (Hashtbl.find_opt sums c.Trace.c_name) in
        Hashtbl.replace sums c.Trace.c_name (v +. c.Trace.c_value))
    (Trace.counts ());
  let t =
    {
      t_pipeline = root.Trace.stop -. root.Trace.start;
      self = Trace.self_times spans;
      sums = List.of_seq (Hashtbl.to_seq sums);
      bound_s = obs_span_total "trws.bound";
      messages =
        ( obs_counter "mrf.messages.potts",
          obs_counter "mrf.messages.const_sparse",
          obs_counter "mrf.messages.generic" );
      speedup = Option.value solve_speedup ~default:p.W.speedup;
    }
  in
  (p, t)

let get l k = Option.value ~default:0.0 (List.assoc_opt k l)

let unattributed t =
  t.t_pipeline -. List.fold_left (fun acc l -> acc +. get t.self l) 0.0 layers

let ratio a b = if b = 0.0 then 0.0 else a /. b

let per_layer inst (t : traced) (p : W.pass) ~overhead_pct ~jobs_invariant ~cores ~jobs =
  let sz = W.sizes inst in
  let self l = get t.self l in
  let sum k = get t.sums k in
  let potts, sparse, generic = t.messages in
  let trws_s = self "mrf.trws" and icm_gain = sum "mrf.icm_gain" in
  let u = unattributed t in
  [
    metric "core.encode_s" "s" Lower (self "core.encode");
    metric "core.vars" "count" Lower (sum "core.vars");
    metric "core.edges" "count" Lower (sum "core.edges");
    metric "core.decode_s" "s" Lower (self "core.decode");
    metric "core.verify_s" "s" Lower (self "core.verify");
    metric "graph.edges" "count" Lower (float_of_int sz.W.links);
    metric "mrf.tables" "count" Lower (sum "mrf.tables");
    metric "mrf.words_per_host" "words" Lower (ratio (sum "mrf.words") (float_of_int sz.W.hosts));
    metric "mrf.kernel_potts" "count" Higher potts ~note:"messages through the Potts kernel";
    metric "mrf.kernel_sparse" "count" Higher sparse ~note:"messages through the const-sparse kernel";
    metric "mrf.kernel_generic" "count" Lower generic ~note:"messages through the generic kernel";
    metric "mrf.trws_s" "s" Lower trws_s ~note:"zoned_parallel: solve_zoned";
    metric "mrf.trws_sweeps" "count" Lower (sum "mrf.trws_sweeps") ~note:"zoned_parallel: rounds";
    metric "mrf.trws_s_per_sweep" "s" Lower (ratio trws_s (sum "mrf.trws_sweeps"));
    metric "mrf.trws_converged" "count" Higher (sum "mrf.trws_converged");
    metric "mrf.trws_energy" "energy" Lower (sum "mrf.trws_energy");
    metric "mrf.trws_bound" "energy" Higher (sum "mrf.trws_bound");
    metric "mrf.trws_bound_s" "s" Lower t.bound_s ~note:"trws.bound spans, summed over domains";
    metric "mrf.messages_per_s" "1/s" Higher (ratio (potts +. sparse +. generic) trws_s);
    metric "mrf.icm_s" "s" Lower (self "mrf.icm");
    metric "mrf.icm_sweeps" "count" Lower (sum "mrf.icm_sweeps");
    metric "mrf.icm_gain" "energy" Higher icm_gain;
    metric "mrf.icm_gain_share" "ratio" Lower (ratio icm_gain (sum "mrf.first_decode_drop"))
      ~note:"share of the drop after TRW-S's first decode that ICM supplies";
    metric "par.cores" "count" Higher (float_of_int cores);
    metric "par.jobs" "count" Higher (float_of_int jobs);
    metric "par.speedup" "ratio" Higher t.speedup
      ~note:"jobs 1 over jobs J: zoned solve on zoned_parallel, MTTC batch elsewhere";
    metric "par.efficiency" "ratio" Higher (t.speedup /. float_of_int jobs);
    metric "par.jobs_invariant" "count" Higher (if jobs_invariant then 1.0 else 0.0);
    metric "bayes.dbn_s" "s" Lower (self "bayes.dbn");
    metric "bayes.bn_nodes" "count" Lower (float_of_int sz.W.bn_nodes);
    metric "bayes.exact" "count" Higher (float_of_int (p.W.dbn_attempts - p.W.dbn_failed));
    metric "bayes.dbn_failed" "count" Lower (float_of_int p.W.dbn_failed);
    metric "vuln.cves" "count" Lower (float_of_int sz.W.cves);
    metric "sim.mttc_s" "s" Lower (self "sim.mttc");
    metric "sim.runs_per_s" "1/s" Higher (ratio (float_of_int p.W.mttc_runs) (self "sim.mttc"));
    metric "sim.ticks_per_s" "1/s" Higher (ratio p.W.mttc_total_ticks (self "sim.mttc"));
    metric "obs.tracing_overhead_pct" "%" Lower overhead_pct;
    metric "unattributed_s" "s" Lower u;
    metric "unattributed_share" "ratio" Lower (ratio u t.t_pipeline);
    metric "trace.pipeline_s" "s" Lower t.t_pipeline;
  ]

let dir_s = function Lower -> "lower" | Higher -> "higher"

let fmt_metric m =
  Printf.sprintf "%-26s %16.6g %-6s %-6s %s" m.m_name m.value m.unit_ (dir_s m.better) m.note

let run ~workload:w ~seed ~seconds ~traced ~fixture ~trace_out =
  match Fixtures.load fixture with
  | Error msg -> Error (Printf.sprintf "cannot load fixture %s: %s" fixture msg)
  | Ok entries -> (
      let instance_seed = W.instance_seed w in
      let e_ref variant =
        Option.map
          (fun e -> e.Fixtures.e_ref)
          (Fixtures.find entries ~workload:(W.to_string w) ~instance_seed ~variant)
      in
      let cores = Domain.recommended_domain_count () in
      let jobs = max 1 (min 2 cores) in
      let su = setup w ~instance_seed in
      match W.prepare w ~jobs ~e_ref su.raw with
      | Error msg -> Error msg
      | Ok inst ->
          Trace.reset ();
          let start = Unix.gettimeofday () in
          (* closed loop: passes back to back, with a gap of the
             reference computation before each and after the last; in a
             traced run untraced and traced passes alternate, so both
             see the same machine.  Every pass starts from a collected
             heap ([calibrate]): the previous pass's and its checks'
             garbage neither lands in this pass's time nor stacks up in
             [peak_heap_mb]. *)
          let rec loop k plain tr gaps ~last_cpu =
            let elapsed = Unix.gettimeofday () -. start in
            let enough = elapsed >= seconds && plain <> [] && ((not traced) || tr <> []) in
            let gap = calibrate ~cpu:(if k = 0 then first_gap else share *. last_cpu) in
            let gaps = gap :: gaps in
            if enough then (List.rev plain, List.rev tr, Array.of_list (List.rev gaps))
            else if traced && k mod 2 = 1 then begin
              let ((p, _) as t) = traced_pass inst ~seed ~pass_id:k in
              loop (k + 1) plain (t :: tr) gaps ~last_cpu:p.W.pipeline_cpu_s
            end
            else begin
              let p = W.pass inst ~seed ~traced:false in
              loop (k + 1) ((k, p) :: plain) tr gaps ~last_cpu:p.W.pipeline_cpu_s
            end
          in
          let plain, tr, gaps = loop 0 [] [] [] ~last_cpu:0.0 in
          let plain_scales = List.map (fun (k, _) -> scale gaps k) plain in
          let calibs = List.concat (Array.to_list gaps) in
          let plain = List.map snd plain in
          let passes = plain @ List.map fst tr in
          let peak_mb =
            float_of_int (Gc.quick_stat ()).Gc.top_heap_words
            *. float_of_int (Sys.word_size / 8)
            /. 1048576.0
          in
          (* the jobs-1 re-solve of [zoned_parallel] doubles a pass, so an
             untraced run makes it once, after the measured window *)
          let run_checks = if traced then [] else fst (W.jobs_check inst (List.hd plain)) in
          let deadline = if traced then Some (W.deadline_energy inst) else None in
          let p0 = List.hd passes in
          let checks =
            run_checks
            @ List.concat_map (fun p -> p.W.checks) passes
            @ List.map
                (fun p ->
                  { W.what = "pass fingerprint equals the first pass"; ok = p.W.fingerprint = p0.W.fingerprint })
                passes
          in
          let med f l = Stats.median (List.map f l) in
          let least f l = List.fold_left (fun a x -> Float.min a (f x)) infinity l in
          (* The gated timings are medians of CPU seconds normalized by
             the reference computation around each sample (see
             {!Calib}).  The gated pipelines are serial, so CPU time is
             their cost without the time the process waited for a core;
             the normalization removes most of what remains, the
             host's speed drifting with its other tenants' load.  Wall
             and raw CPU figures stay in the report. *)
          let normalized f xs scales = Stats.median (List.map2 (fun x sc -> f x *. sc) xs scales) in
          let energy_ratio = p0.W.energy /. p0.W.e_ref in
          let bound_ratio = p0.W.bound /. p0.W.energy in
          let n_plain = List.length plain and n_setup = List.length su.reps in
          let e2e =
            [
              metric "setup_s" "s" Lower
                (normalized (fun e -> e.Stats.cpu) (List.map fst su.reps) (List.map snd su.reps))
                ~note:(Printf.sprintf "normalized CPU, median of %d set-ups" n_setup);
              metric "optimize_s" "s" Lower
                (normalized (fun p -> p.W.optimize_cpu_s) plain plain_scales)
                ~note:(Printf.sprintf "normalized CPU, median of %d passes" n_plain);
              metric "pipeline_s" "s" Lower
                (normalized (fun p -> p.W.pipeline_cpu_s) plain plain_scales)
                ~note:(Printf.sprintf "normalized CPU, median of %d passes" n_plain);
              metric "energy_ratio" "ratio" Lower energy_ratio ~note:"E / E_ref";
              metric "bound_ratio" "ratio" Higher bound_ratio ~note:"LB / E";
              metric "mttc_ticks" "ticks" Higher p0.W.mttc_ticks;
              metric "peak_heap_mb" "MiB" Lower peak_mb;
            ]
          in
          let layer, zoned_report =
            if not traced then ([], [])
            else begin
              (* the traced pass whose pipeline is the median: its layer
                 times add up to its own pipeline, which per-layer
                 medians would not *)
              let by_pipe =
                List.sort (fun (_, a) (_, b) -> Float.compare a.t_pipeline b.t_pipeline) tr
              in
              let mp, mt = List.nth by_pipe ((List.length by_pipe - 1) / 2) in
              let plain_pipe = med (fun p -> p.W.pipeline_s) plain in
              let overhead_pct =
                100.0 *. (med (fun (_, t) -> t.t_pipeline) tr -. plain_pipe) /. plain_pipe
              in
              let jobs_invariant =
                List.for_all
                  (fun c -> c.W.ok || not (String.starts_with ~prefix:W.jobs_invariance c.W.what))
                  checks
              in
              ( per_layer inst mt mp ~overhead_pct ~jobs_invariant ~cores ~jobs,
                (* no declared workload takes the zoned route, so these
                   two stay out of the per-layer metrics *)
                if w = W.Zoned_parallel then
                  [
                    Printf.sprintf "# mrf.zoned_rounds: %g, mrf.zoned_gap: %.6g"
                      (get mt.sums "mrf.zoned_rounds") (get mt.sums "mrf.zoned_gap");
                  ]
                else [] )
            end
          in
          let metrics = if traced then layer else e2e in
          let failed_checks =
            List.filter (fun c -> not c.W.ok) checks
            @ List.filter_map
                (fun m ->
                  if Float.is_finite m.value then None
                  else Some { W.what = m.m_name ^ " is finite"; ok = false })
                metrics
          in
          let failed = List.length failed_checks in
          let attempted = List.length checks + List.length metrics in
          let dbn_attempts = List.fold_left (fun a p -> a + p.W.dbn_attempts) 0 passes in
          let dbn_failed = List.fold_left (fun a p -> a + p.W.dbn_failed) 0 passes in
          let tail =
            match Stats.tail (List.map2 (fun p sc -> p.W.pipeline_cpu_s *. sc) plain plain_scales) with
            | Some (pct, v) -> Printf.sprintf "p%g %.6g s (%d passes)" pct v n_plain
            | None -> Printf.sprintf "n/a (%d passes; needs >= 20)" n_plain
          in
          let samples what f l =
            Printf.sprintf "# %s samples: %s" what
              (String.concat " " (List.map (fun x -> Printf.sprintf "%.4g" (f x)) l))
          in
          let sz = W.sizes inst in
          let header =
            [
              Printf.sprintf "# perfbench workload=%s seed=%d instance_seed=%d seconds=%g trace=%d"
                (W.to_string w) seed instance_seed seconds (if traced then 1 else 0);
              Printf.sprintf "# host=%s cores=%d jobs=%d commit=%s" (hostname ()) cores jobs
                (commit ());
              Printf.sprintf "# why: %s" (W.why w);
              Printf.sprintf "# sizes: hosts=%d links=%d vars=%d mrf_edges=%d" sz.W.hosts
                sz.W.links sz.W.vars sz.W.edges;
              Printf.sprintf "# setup steps (median wall s): %s"
                (String.concat " "
                   (List.map (fun (n, v) -> Printf.sprintf "%s=%.6g" n v) su.step_medians));
              samples "setup CPU s" (fun (e, _) -> e.Stats.cpu) su.reps;
              samples "setup-block reference CPU s" Fun.id su.calibs;
              Printf.sprintf "# passes: %d untraced, %d traced" n_plain (List.length tr);
              samples "untraced optimize wall s" (fun p -> p.W.optimize_s) plain;
              samples "untraced optimize CPU s" (fun p -> p.W.optimize_cpu_s) plain;
              samples "untraced pipeline wall s" (fun p -> p.W.pipeline_s) plain;
              samples "untraced pipeline CPU s" (fun p -> p.W.pipeline_cpu_s) plain;
              Printf.sprintf "# pass reference CPU s samples, gap by gap: %s"
                (String.concat " | "
                   (List.map
                      (fun g -> String.concat " " (List.map (Printf.sprintf "%.4g") g))
                      (Array.to_list gaps)));
            ]
          in
          let extras =
            [
              Printf.sprintf "# reference computation: CPU median %.6g s around passes, %.6g s around set-ups (nominal %g s)"
                (Stats.median calibs) (Stats.median su.calibs) Calib.nominal_s;
              Printf.sprintf "# setup: wall median %.6g, fastest %.6g; CPU median %.6g (%d set-ups)"
                (med (fun (e, _) -> e.Stats.wall) su.reps)
                (least (fun (e, _) -> e.Stats.wall) su.reps)
                (med (fun (e, _) -> e.Stats.cpu) su.reps)
                n_setup;
              Printf.sprintf "# optimize: wall median %.6g, fastest %.6g; CPU median %.6g (%d passes)"
                (med (fun p -> p.W.optimize_s) plain)
                (least (fun p -> p.W.optimize_s) plain)
                (med (fun p -> p.W.optimize_cpu_s) plain)
                n_plain;
              Printf.sprintf "# pipeline: wall median %.6g, fastest %.6g; CPU median %.6g (%d passes)"
                (med (fun p -> p.W.pipeline_s) plain)
                (least (fun p -> p.W.pipeline_s) plain)
                (med (fun p -> p.W.pipeline_cpu_s) plain)
                n_plain;
              Printf.sprintf "# pipeline_tail_s: %s" tail;
              Printf.sprintf "# energy_gap: %.6g (E %.6f, E_ref %.6f)" (energy_ratio -. 1.0)
                p0.W.energy p0.W.e_ref;
              Printf.sprintf "# bound_gap: %.6g (LB %.6f)" (1.0 -. bound_ratio) p0.W.bound;
              (match deadline with
              | Some e ->
                  Printf.sprintf "# deadline_gap: %.6g (E %.6f within %g s)"
                    ((e -. p0.W.e_ref) /. Float.abs p0.W.e_ref)
                    e (W.deadline_s w)
              | None -> "# deadline_gap: measured in traced runs");
              Printf.sprintf "# dbn: %s"
                (match p0.W.dbn with
                | Some d -> Printf.sprintf "%.6g (exact)" d
                | None ->
                    Printf.sprintf "failed: not exact within %g s (known defect)"
                      W.dbn_time_limit);
              Printf.sprintf "# failed_ratio: %d/%d" failed attempted;
              Printf.sprintf "# d_bn attempts failed (known defect above ~200 hosts): %d/%d"
                dbn_failed dbn_attempts;
            ]
            @ zoned_report
            @ List.map (fun c -> "# FAILED check: " ^ c.W.what) failed_checks
          in
          if traced then Trace.write trace_out;
          Ok
            {
              attempted;
              failed;
              fingerprint = p0.W.fingerprint;
              metrics;
              report =
                header
                @ List.map fmt_metric layer
                @ List.map fmt_metric e2e @ extras;
            })

let json_line r =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (num m.value) m.unit_)
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed (String.concat ", " metrics)

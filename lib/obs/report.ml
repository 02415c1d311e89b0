(* Convergence/profiling report logic.  See report.mli.

   Everything here is pure analysis over already-captured data
   ([Obs.event list] from a trace, [Recorder.frame list] from a flight
   recorder dump) so the CLI `netdiv report` and `netdiv obs-summary`
   subcommands share one code path; parsing JSON back into events and
   frames stays in bin/ with the repo's JSON reader. *)

(* ---------------------------------------------------------- hot spans *)

let hot_spans ?(k = 10) events =
  let rollup = Export.span_rollup events in
  List.filteri (fun i _ -> i < k) rollup

let pp_hot_spans ?k ppf events =
  match hot_spans ?k events with
  | [] -> Format.fprintf ppf "hot spans: none"
  | rows ->
      Format.fprintf ppf "@[<v>hot spans (by total time):@,";
      Format.fprintf ppf "  %-34s %8s %12s %12s@," "name" "count" "total_s"
        "max_s";
      List.iter
        (fun (name, count, total, mx) ->
          Format.fprintf ppf "  %-34s %8d %12.6f %12.6f@," name count total
            mx)
        rows;
      Format.fprintf ppf "@]"

(* --------------------------------------------- kernel-class throughput *)

type throughput = {
  k_class : string;
  k_messages : float;
  k_sweep_s : float;
  k_per_s : float;
}

let msg_prefix = "mrf.messages."

let kernel_throughput events =
  (* message totals: solvers sample the per-solve per-class totals at
     the end of every run_loop, so summing the Sample events recovers
     the global count even across several solves in one trace *)
  let totals : (string, float ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.event) ->
      if
        e.Obs.kind = Obs.Sample
        && String.length e.Obs.name > String.length msg_prefix
        && String.sub e.Obs.name 0 (String.length msg_prefix) = msg_prefix
      then begin
        let cls =
          String.sub e.Obs.name
            (String.length msg_prefix)
            (String.length e.Obs.name - String.length msg_prefix)
        in
        match Hashtbl.find_opt totals cls with
        | Some r -> r := !r +. e.Obs.value
        | None -> Hashtbl.add totals cls (ref e.Obs.value)
      end)
    events;
  (* messages are produced inside sweep spans; their total wall time is
     the denominator *)
  let sweep_s =
    List.fold_left
      (fun acc (name, _, total, _) ->
        if name = "trws.sweep" || name = "bp.sweep" then acc +. total else acc)
      0.0 (Export.span_rollup events)
  in
  Hashtbl.fold
    (fun cls r acc ->
      {
        k_class = cls;
        k_messages = !r;
        k_sweep_s = sweep_s;
        k_per_s = (if sweep_s > 0.0 then !r /. sweep_s else 0.0);
      }
      :: acc)
    totals []
  |> List.sort (fun a b ->
         let c = Float.compare b.k_messages a.k_messages in
         if c <> 0 then c else compare a.k_class b.k_class)

let pp_throughput ppf events =
  match kernel_throughput events with
  | [] -> ()
  | rows ->
      Format.fprintf ppf "@[<v>kernel-class message throughput:@,";
      Format.fprintf ppf "  %-16s %16s %12s %16s@," "class" "messages"
        "sweep_s" "msgs/s";
      List.iter
        (fun t ->
          Format.fprintf ppf "  %-16s %16.0f %12.6f %16.3e@," t.k_class
            t.k_messages t.k_sweep_s t.k_per_s)
        rows;
      Format.fprintf ppf "@]"

(* ------------------------------------------------------ time-to-gap *)

type milestone = { m_gap_pct : float; m_t : float; m_iter : int }

(* the repo-wide relative-gap convention (see bench hierarchical_scale
   and Solver.optimality_gap): gap normalized by max(1, |energy|) *)
let rel_gap ~energy ~bound =
  if Float.is_finite bound then
    (energy -. bound) /. Float.max 1.0 (Float.abs energy)
  else infinity

let milestone_thresholds = [ 50.0; 20.0; 10.0; 5.0; 2.0; 1.0; 0.5; 0.1 ]

let sweeps frames =
  List.filter_map
    (function Recorder.Sweep s -> Some s | _ -> None)
    frames

let boundaries frames =
  List.filter_map
    (function Recorder.Boundary b -> Some b | _ -> None)
    frames

let marks frames =
  List.filter_map (function Recorder.Mark m -> Some m | _ -> None) frames

let sweep_gap (s : Recorder.sweep_frame) =
  rel_gap ~energy:s.Recorder.s_energy ~bound:s.Recorder.s_bound

let gap_milestones frames =
  let ss = sweeps frames in
  List.filter_map
    (fun pct ->
      List.find_opt (fun s -> sweep_gap s *. 100.0 <= pct) ss
      |> Option.map (fun (s : Recorder.sweep_frame) ->
             {
               m_gap_pct = pct;
               m_t = s.Recorder.s_t;
               m_iter = s.Recorder.s_iter;
             }))
    milestone_thresholds

(* ------------------------------------------------- zone attribution *)

type zone_gap = {
  z_zone : int;
  z_energy : float;
  z_bound : float;
  z_gap : float;
  z_converged : bool;
}

let zone_attribution frames =
  let zs =
    List.filter_map
      (function Recorder.Zone z -> Some z | _ -> None)
      frames
  in
  let last_round =
    List.fold_left (fun acc z -> max acc z.Recorder.z_round) (-1) zs
  in
  List.filter_map
    (fun (z : Recorder.zone_frame) ->
      if z.Recorder.z_round <> last_round then None
      else
        Some
          {
            z_zone = z.Recorder.z_zone;
            z_energy = z.Recorder.z_energy;
            z_bound = z.Recorder.z_bound;
            z_gap = z.Recorder.z_energy -. z.Recorder.z_bound;
            z_converged = z.Recorder.z_converged;
          })
    zs
  |> List.sort (fun a b ->
         let c = Float.compare b.z_gap a.z_gap in
         if c <> 0 then c else compare a.z_zone b.z_zone)

(* -------------------------------------------------- stall diagnosis *)

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let diagnose frames =
  let ss = sweeps frames in
  let bs = boundaries frames in
  match (bs, ss) with
  | [], [] -> "no convergence frames recorded"
  | _ :: _, _ ->
      (* zoned solve: the boundary frames carry the round-level story *)
      let tail = last_n 3 bs in
      let last = List.nth tail (List.length tail - 1) in
      if last.Recorder.b_disagree = 0 then
        "zones agree on every boundary edge (primal/dual reconciled)"
      else
        let plateaued =
          List.length tail >= 3
          && List.for_all
               (fun (b : Recorder.boundary_frame) ->
                 b.Recorder.b_disagree = last.Recorder.b_disagree)
               tail
        in
        if plateaued then
          Printf.sprintf
            "boundary disagreement plateaued at %d edge(s) — re-solve the \
             top-gap zones or shrink the subgradient step"
            last.Recorder.b_disagree
        else
          Printf.sprintf
            "boundary disagreement still shrinking (%d edge(s) at dump)"
            last.Recorder.b_disagree
  | [], _ :: _ ->
      (* Primal-stage frames (ICM, SA) carry no bound.  When a dual
         solver recorded too, its frames tell the stall story, and the
         gap pairs the best energy of any stage with the best bound:
         the stages of one recording solve one model. *)
      let duals =
        List.filter
          (fun (s : Recorder.sweep_frame) -> s.Recorder.s_bound > neg_infinity)
          ss
      in
      let energy =
        List.fold_left
          (fun e (s : Recorder.sweep_frame) -> Float.min e s.Recorder.s_energy)
          infinity ss
      and bound =
        List.fold_left
          (fun b (s : Recorder.sweep_frame) -> Float.max b s.Recorder.s_bound)
          neg_infinity ss
      in
      let gap = rel_gap ~energy ~bound in
      let ss = if duals = [] then ss else duals in
      if gap <= 0.0 then "converged: dual gap closed"
      else
        let recent = last_n 3 ss in
        let stalled =
          (* flat best energy AND best bound across the recent bound
             evaluations — the same condition that drives the solver's
             stall counter, reconstructed without knowing its tolerance *)
          match recent with
          | a :: rest when List.length recent >= 3 ->
              List.for_all
                (fun (s : Recorder.sweep_frame) ->
                  s.Recorder.s_energy = a.Recorder.s_energy
                  && s.Recorder.s_bound = a.Recorder.s_bound)
                rest
          | _ -> false
        in
        if stalled then
          Printf.sprintf
            "stalled: no energy/bound progress over the last %d bound \
             evaluations (gap %.3g%%)"
            (List.length recent) (gap *. 100.0)
        else Printf.sprintf "still progressing (gap %.3g%%)" (gap *. 100.0)

(* ----------------------------------------------------- full renderer *)

let pp_convergence ppf frames =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "diagnosis: %s@," (diagnose frames);
  (match marks frames with
  | [] -> ()
  | ms ->
      Format.fprintf ppf "marks:@,";
      List.iter
        (fun (m : Recorder.mark_frame) ->
          Format.fprintf ppf "  %10.6fs  %s@," m.Recorder.mk_t
            m.Recorder.mk_label)
        ms);
  (match gap_milestones frames with
  | [] -> ()
  | ms ->
      Format.fprintf ppf "time to gap:@,";
      Format.fprintf ppf "  %8s %12s %8s@," "gap<=" "t_s" "iter";
      List.iter
        (fun m ->
          Format.fprintf ppf "  %7g%% %12.6f %8d@," m.m_gap_pct m.m_t
            m.m_iter)
        ms);
  (match zone_attribution frames with
  | [] -> ()
  | zs ->
      Format.fprintf ppf
        "zone gap attribution (re-solve the top zones first):@,";
      Format.fprintf ppf "  %6s %16s %16s %12s %s@," "zone" "energy" "bound"
        "gap" "converged";
      List.iter
        (fun z ->
          Format.fprintf ppf "  %6d %16.6f %16.6f %12.6f %b@," z.z_zone
            z.z_energy z.z_bound z.z_gap z.z_converged)
        zs);
  (match boundaries frames with
  | [] -> ()
  | bs ->
      Format.fprintf ppf "boundary reconciliation:@,";
      Format.fprintf ppf "  %6s %10s %16s %16s %12s@," "round" "disagree"
        "zone_bound" "edge_bound" "step";
      List.iter
        (fun (b : Recorder.boundary_frame) ->
          Format.fprintf ppf "  %6d %10d %16.6f %16.6f %12.6g@,"
            b.Recorder.b_round b.Recorder.b_disagree b.Recorder.b_zone_bound
            b.Recorder.b_edge_bound b.Recorder.b_step)
        bs);
  (match sweeps frames with
  | [] -> ()
  | ss ->
      let n = List.length ss in
      let last = List.nth ss (n - 1) in
      Format.fprintf ppf
        "sweep frames: %d (last: iter %d, energy %.6f, bound %.6f)@," n
        last.Recorder.s_iter last.Recorder.s_energy last.Recorder.s_bound);
  Format.fprintf ppf "@]"

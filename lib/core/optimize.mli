(** Optimal diversification (Definition 5, Section V-C).

    Encodes a network and its constraints as an MRF and minimizes with a
    configurable solver.  The default pipeline is TRW-S followed by an ICM
    polish of the decoded labeling: TRW-S supplies the global structure and
    the dual bound, ICM removes residual single-slot defects (it can only
    lower the energy). *)

type solver =
  | Trws           (** TRW-S alone *)
  | Trws_icm       (** TRW-S + ICM polish (default, "our method") *)
  | Bp             (** loopy belief propagation baseline *)
  | Icm            (** greedy local search baseline *)
  | Sa             (** simulated annealing baseline *)
  | Exact
      (** branch-and-bound ({!Netdiv_mrf.Bnb}): proves global optimality
          when it converges; practical for small or loosely-coupled
          instances *)

type report = {
  assignment : Assignment.t;
  energy : float;              (** MRF energy of [assignment] *)
  lower_bound : float;         (** dual bound ([neg_infinity] without one) *)
  solver_result : Netdiv_mrf.Solver.result;
  constraints_ok : bool;       (** all constraints satisfied *)
  violated : Constr.t list;
  runtime_s : float;           (** encode + solve wall clock *)
  outcome : Netdiv_mrf.Runner.outcome;
      (** how the solve ended, as {!Netdiv_mrf.Runner.run} reports it *)
  stage_timings : (string * float) list;
      (** wall-clock seconds per solver stage, in execution order *)
  retries : int;
      (** stage attempts retried after recoverable failures (see
          {!Netdiv_mrf.Runner.run}); 0 on a clean run *)
}

val run :
  ?solver:solver ->
  ?prconst:float ->
  ?big_m:float ->
  ?preference:(host:int -> service:int -> product:int -> float) ->
  ?edge_weight:(int -> int -> float) ->
  ?max_iters:int ->
  ?budget:Netdiv_mrf.Runner.Budget.t ->
  ?patience:float ->
  ?jobs:int ->
  ?zone_of:int array ->
  ?checkpoint:string ->
  ?resume:string ->
  Network.t ->
  Constr.t list ->
  report
(** Computes an (approximately) optimal constrained assignment; the
    optional arguments are forwarded to {!Encode.encode}.

    Every solve runs through the anytime harness
    ({!Netdiv_mrf.Runner.run}) on the solver's fallback cascade:
    [Trws]/[Trws_icm]/[Bp] run alone; [Icm] stalls retry from two
    perturbed warm starts; [Sa] retries once from a perturbed start with
    a different seed; [Exact] falls back to TRW-S + ICM when
    branch-and-bound does not close.  The outcome, stage timings, retry
    count, the [runner.stage] fault point and the flight-recorder dump
    all come from the harness.  The returned assignment is always
    feasible with respect to the encoding.

    [budget] bounds the solve by wall clock and/or sweeps; the best
    assignment found when it expires is returned.  [patience] declares
    a stage stalled after that many seconds without improvement, and the
    cascade moves on.  Without either, each stage runs to its own
    stopping criterion.

    [zone_of] (one zone id per MRF variable, e.g. the second component
    of {!Netdiv_workload.Workload.stream_zoned}) runs the TRW-S stage of
    every solver that has one ([Trws], [Trws_icm], the [Exact] fallback)
    as block-coordinate zone decomposition
    ({!Netdiv_mrf.Trws.solve_zoned}) — the 100k-host configuration —
    with or without a budget.

    [jobs] parallelizes what has a job-count-invariant parallel form
    over the {!Netdiv_par.Pool} domain pool: the zone solves of zoned
    TRW-S and the SA restarts.  Every other stage runs serially.  The
    assignment is identical for every [jobs] value.

    [checkpoint] names a file that receives an atomic best-labeling
    snapshot ({!Serial.checkpoint_to_string}) every time the harness's
    best strictly improves; a failed snapshot write warns and counts
    ([optimize.checkpoint_failures]) but never aborts the solve.
    [resume] reads such a file and warm-starts the cascade from it — an
    unreadable, corrupt or wrong-encoding checkpoint warns and starts
    fresh.  Resuming an interrupted run with the same parameters yields
    the same assignment as the uninterrupted run: stages warm-start from
    the checkpointed labeling, and the best-so-far merge prefers the
    newest equal-energy labeling. *)

val refine :
  ?prconst:float ->
  ?big_m:float ->
  ?preference:(host:int -> service:int -> product:int -> float) ->
  ?edge_weight:(int -> int -> float) ->
  previous:Assignment.t ->
  Network.t ->
  Constr.t list ->
  report
(** Incremental re-optimization after a small change (a new constraint, a
    changed candidate list): runs an ICM stage through the anytime
    harness, warm-started from [previous] instead of solving from
    scratch.  Slots whose previous product is no longer selectable fall
    back before polishing.  Much faster than {!run} for small
    perturbations, with no dual bound. *)

val solve_encoded :
  ?solver:solver ->
  ?max_iters:int ->
  ?budget:Netdiv_mrf.Runner.Budget.t ->
  ?patience:float ->
  ?jobs:int ->
  ?zone_of:int array ->
  Encode.encoded ->
  Netdiv_mrf.Solver.result
(** Lower-level entry point on a pre-built encoding (used by the
    scalability benches, which time encode and solve separately).
    [zone_of] as in {!run}. *)

val solve_encoded_outcome :
  ?solver:solver ->
  ?max_iters:int ->
  ?budget:Netdiv_mrf.Runner.Budget.t ->
  ?patience:float ->
  ?jobs:int ->
  ?zone_of:int array ->
  ?checkpoint:string ->
  ?resume:string ->
  Encode.encoded ->
  Netdiv_mrf.Solver.result
  * Netdiv_mrf.Runner.outcome
  * (string * float) list
  * int
(** Like {!solve_encoded} but also reports the outcome, per-stage
    timings and retry count (the anytime-quality data the benches
    record).  [checkpoint]/[resume] as in {!run}. *)

val solver_name : solver -> string

val pp_report : Format.formatter -> report -> unit

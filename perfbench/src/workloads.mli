(** The four benchmark workloads: how each builds its inputs from a
    seed, and one pass of the diversification pipeline over them
    (optimize → decode → verify → evaluate) with the correctness checks
    that follow every pass.

    A pass calls the library only through the public entry points of
    each [lib/] module.  Untraced, it takes the user's path
    ({!Netdiv_core.Optimize.run}, {!Netdiv_casestudy.Experiments});
    traced, it makes the same calls one layer at a time
    ({!Netdiv_core.Encode}, {!Netdiv_mrf.Trws}, {!Netdiv_mrf.Icm}, ...)
    inside {!Trace} spans, and the checks require both paths to agree
    bit for bit. *)

type name = Case_study | Scaled_ics | Random_frustrated | Zoned_parallel

val all : name list
val to_string : name -> string
val of_string : string -> name option

val why : name -> string
(** One line: what the workload stresses and why it was chosen. *)

val instance_seed : name -> int
(** The pinned instance the workload runs: generator seed 1, or 0 for
    the fixed case-study network.  The [--seed] argument varies only the
    stochastic evaluation (MTTC runs, the case study's random
    baseline), so the reference energy can be a fixture. *)

val variants : name -> string list
(** The optimization problems of one pass: the case study's
    ["optimal"; "host-constr"; "product-constr"], else ["optimal"]. *)

(** {1 Inputs} *)

type raw
(** Generated inputs, before the benchmark-side preparation. *)

val generate : name -> instance_seed:int -> raw * (string * Stats.elapsed) list
(** Builds the workload's inputs through the library's generators and
    returns them with the wall and CPU seconds each generation step
    took, by layer ([vuln.synthesize], [vuln.similarity],
    [casestudy.network], [casestudy.generate], [workload.instance],
    [workload.stream_zoned]).
    This is what [setup_s] times. *)

type instance

val prepare :
  name ->
  jobs:int ->
  e_ref:(string -> float option) ->
  raw ->
  (instance, string) result
(** Benchmark-side preparation that is not part of [setup_s]: the check
    encodings, attack entries and target, and (zoned) the host network
    recovered from the streamed model.  [e_ref variant] is the pinned
    reference energy; a missing one is an error.  [jobs] is the domain
    count of the parallel regions. *)

val problems_of : instance -> (string * Netdiv_core.Constr.t list * Netdiv_core.Network.t) list
(** The pass's optimization problems: variant, constraints, network. *)

type sizes = {
  hosts : int;
  links : int;  (** host graph edges *)
  vars : int;  (** MRF variables, summed over the pass's problems *)
  edges : int;  (** MRF edges, summed likewise *)
  cves : int;  (** synthesized CVEs (case study), else 0 *)
  bn_nodes : int;  (** attack-BN nodes for the d_bn entry *)
}

val sizes : instance -> sizes

(** {1 Passes} *)

type check = { what : string; ok : bool }

val jobs_invariance : string
(** Prefix of the checks that compare results across job counts. *)

type pass = {
  optimize_s : float;  (** network → assignment, wall seconds *)
  optimize_cpu_s : float;  (** the same, process CPU seconds *)
  pipeline_s : float;  (** optimize → decode → verify → evaluate, wall seconds *)
  pipeline_cpu_s : float;  (** the same, process CPU seconds *)
  energy : float;  (** summed over the pass's problems *)
  bound : float;  (** summed dual bounds *)
  e_ref : float;  (** summed pinned reference energies *)
  dbn : float option;  (** d_bn of the optimal assignment, when computed *)
  dbn_attempts : int;
  dbn_failed : int;
      (** d_bn attempts that did not finish within the time limit — the
          known defect above ~200 hosts, not counted in [checks]; on the
          case study, where exact d_bn must finish, also a failed check *)
  dbn_s : float;
  mttc_ticks : float;  (** mean over entries of the mean ticks to compromise *)
  mttc_s : float;
  mttc_runs : int;
  mttc_total_ticks : float;  (** ticks simulated, failed runs at the cap *)
  speedup : float;  (** jobs-1 over jobs-J seconds of a small MTTC batch *)
  checks : check list;
  fingerprint : string;
      (** energies, bounds, MTTC and d_bn; equal on every pass of a run *)
  solutions : solution list;
}

and solution
(** One optimized problem of the pass. *)

val pass : instance -> seed:int -> traced:bool -> pass
(** One closed-loop pass followed by its correctness checks (the checks
    are not part of [pipeline_s]).  With [traced] the pass records
    {!Trace} spans and counts; the caller enables tracing. *)

val jobs_check : instance -> pass -> check list * float option
(** On [zoned_parallel], solves the pass's problem again at jobs 1: the
    result must equal the pass's bit for bit, and the time ratio over
    the pass's [optimize_s] is the zoned solve's speedup.  Nothing on
    the serial workloads.  The re-solve doubles a pass's cost, so the
    runner makes it once per untraced run and in every traced pass. *)

val deadline_s : name -> float
(** The wall-clock budget of the deadline probe. *)

val deadline_energy : instance -> float
(** Summed energy that {!Netdiv_core.Optimize.run} reaches under
    [Budget.seconds (deadline_s w)], for each problem of the pass. *)

val dbn_time_limit : float
(** CPU seconds a d_bn attempt may take before it counts as failed. *)

(** One benchmark run: set-up, the closed loop of passes for the
    measured seconds, correctness checks, and the metrics. *)

type direction = Lower | Higher

type metric = {
  m_name : string;
  value : float;
  unit_ : string;
  better : direction;
  note : string;
}

type result = {
  attempted : int;  (** correctness checks made *)
  failed : int;  (** checks that failed *)
  metrics : metric list;
      (** the end-to-end metrics, or with tracing the per-layer ones *)
  report : string list;  (** human-readable lines printed before the JSON *)
  fingerprint : string;  (** the first pass's energies, MTTC and d_bn *)
}

val run :
  workload:Workloads.name ->
  seed:int ->
  seconds:float ->
  traced:bool ->
  fixture:string ->
  trace_out:string ->
  (result, string) Stdlib.result
(** Sets up the workload's inputs from [seed] several times (the median
    set-up's normalized CPU time is [setup_s]), then runs passes back to
    back, one at a time, until [seconds] have passed, with the
    {!Calib} reference computation in the gaps.  With [traced], untraced
    and traced passes alternate: the traced ones give the per-layer
    metrics and the difference between the two kinds gives the tracing
    overhead; the recorded spans and counts are written to
    [trace_out].  [Error] when
    the fixture cannot be read or lacks the run's reference energy. *)

val json_line : result -> string
(** The final output line: [correct], [attempted], [failed] and
    [metrics] (value and unit by name). *)

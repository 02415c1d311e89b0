(** Small statistics over timing samples. *)

val median : float list -> float
(** Median; the mean of the two middle samples for an even count, [nan]
    for no samples. *)

val tail : float list -> (float * float) option
(** [tail xs] is [(p, v)]: the highest percentile [p] among 99.9, 99,
    95, 90, 75 and 50 that still has at least 10 samples above it, and
    its nearest-rank value [v].  [None] when there are too few samples
    for even the median. *)

val time : (unit -> 'a) -> 'a * float
(** Result and wall-clock seconds of a thunk. *)

type elapsed = { wall : float; cpu : float }
(** Wall-clock seconds, and CPU seconds (user + system) of the whole
    process over the same interval. *)

val clock : (unit -> 'a) -> 'a * elapsed
(** Result, wall-clock and CPU seconds of a thunk.  On a serial code
    path the CPU seconds leave out the time the process waited for a
    core, which on a shared host is most of the run-to-run drift. *)

val close : ?rel:float -> float -> float -> bool
(** Equality up to a relative tolerance (default 1e-9), with an
    absolute floor of [rel] near zero. *)

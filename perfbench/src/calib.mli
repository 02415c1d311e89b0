(** A fixed reference computation that measures the host's current
    speed.

    On a shared host the same pass takes up to a third longer in one
    minute than in the next, because other tenants compete for the
    caches, memory bandwidth and cores; CPU time does not remove
    that.  The runner times this computation next to every
    measured pass and set-up block and divides it out: a timing divided
    by the reference's CPU time around it and multiplied by
    {!nominal_s} reads as CPU seconds on a host where the reference takes
    [nominal_s].  The computation depends on nothing in [lib/], so no
    change to the library moves it. *)

val nominal_s : float
(** CPU seconds of one reference computation on the 2-core VM the
    benchmark was written on (0.09; it read 0.08–0.10 s there); the
    unit the normalized timings are expressed in. *)

val time : unit -> float
(** Runs the reference computation once and returns its CPU seconds.
    @raise Failure if its result differs from the first run's. *)

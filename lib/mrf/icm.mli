(** Iterated conditional modes (greedy local search baseline).

    Starting from a unary-greedy labeling (or a supplied one), repeatedly
    move each node to the label minimizing its local energy until a full
    sweep makes no change.  Fast, bound-free, and easily stuck in local
    minima — a natural lower baseline for the solver ablation. *)

type config = { max_sweeps : int }

val default_config : config
(** 100 sweeps. *)

val greedy_unary_init : Mrf.t -> int array
(** Each node's lowest-unary label, the first one on ties: the start
    labeling of {!solve} and {!Sa.solve} when no [init] is given. *)

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?on_progress:(iter:int -> energy:float -> bound:float -> unit) ->
  ?init:int array ->
  Mrf.t ->
  Solver.result
(** [interrupt] is polled once per sweep; on [true] the current labeling
    (greedy moves never increase energy) is returned.  [on_progress]
    fires after each sweep with [bound = neg_infinity].

    A sweep visits the nodes in id order and fills the conditional cost
    of all of a node's labels in one walk over its row of the model's
    CSR incidence, allocating nothing per node.  Each label's cost is
    summed unary first, then edges in incidence order, and a node moves
    only to a strictly cheaper label (lowest label on ties), so the
    labeling is a function of the model and [init] alone.  The solve
    runs inside an [icm.solve] span. *)

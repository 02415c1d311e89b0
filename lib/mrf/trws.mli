(** Sequential tree-reweighted message passing (TRW-S).

    The solver the paper uses for optimal diversification (Section V-C),
    after Kolmogorov's convergent TRW-S with monotonic-chain weights: nodes
    are processed in index order; a forward sweep updates messages toward
    higher-indexed neighbours, a backward sweep mirrors it.  Each node's
    aggregated cost is weighted by [1 / max(#lower neighbours, #higher
    neighbours)], which makes the dual bound non-decreasing.

    The reported lower bound is the monotonic-chain dual bound: the sum
    over chains of each chain's minimum under its γ-weighted node costs
    and reparameterized edge costs, plus the unary minima of isolated
    nodes — valid for any message state and tight on trees.  Labelings are decoded greedily in node order, conditioning on
    already-decoded lower neighbours (Kolmogorov's scheme). *)

type config = {
  max_iters : int;       (** cap on forward+backward sweep pairs *)
  tolerance : float;     (** stop when the bound improves less than this *)
  patience : int;        (** ... for this many consecutive iterations *)
  bound_every : int;     (** compute bound/decode every k iterations *)
}

val default_config : config
(** 100 iterations, tolerance 1e-7, patience 3, bound every iteration. *)

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?on_progress:(iter:int -> energy:float -> bound:float -> unit) ->
  Mrf.t ->
  Solver.result
(** Runs TRW-S and returns the best decoded labeling encountered, its
    energy, and the final lower bound.

    [interrupt] is polled once per forward/backward sweep pair; when it
    returns [true] the solver stops and returns the best labeling, energy
    and bound found so far (the anytime property — an initial decode
    happens before the first sweep, so the labeling is always feasible).
    [on_progress] fires after every bound computation with the running
    best energy and dual bound. *)

val solve_zoned :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?on_progress:(iter:int -> energy:float -> bound:float -> unit) ->
  ?zones:int ->
  ?zone_of:int array ->
  ?rounds:int ->
  ?step:float ->
  ?jobs:int ->
  Mrf.t ->
  Solver.result
(** Block-coordinate zone decomposition (Lagrangian dual decomposition)
    for instances whose topology is nearly block-structured — the zoned
    ICS networks of the paper at 100k-host scale.

    The node set is split by [zone_of] (any per-node zone ids; renumbered
    densely in order of first appearance) or, when absent, into [zones]
    balanced connected blocks by deterministic BFS growth over the model
    adjacency (the MRF-side mirror of {!Netdiv_graph.Cut.greedy_partition};
    default: 1 zone below 4096 nodes, 16 above — a function of the model
    size {e only}).  Each zone slave
    owns its interior edges, unaries and the running boundary penalties;
    every boundary edge (u, v) is a two-variable slave
    [min pot(xu, xv) - lam_u(xu) - lam_v(xv)].  Per round, zone slaves
    are solved with {!solve} in parallel on a {!Netdiv_par.Pool.Team},
    then every boundary edge is reconciled {e sequentially in global
    edge order}: the multipliers of a disagreeing endpoint move one
    diminishing subgradient step ([step / round]).  The reported bound
    is [sum of zone bounds + sum of edge-slave minima] — a valid lower
    bound on the full model's optimum — and the reported labeling is the
    best concatenation of zone labelings seen (always feasible);
    [iterations] counts reconciliation rounds (at most [rounds], fewer
    when every boundary edge agrees and all zones converged, or when the
    primal-dual gap falls under [config.tolerance]).

    Determinism contract: the trajectory is a function of the zone map
    only — zone solves are independent, results land in per-zone slots,
    and multiplier updates run in global order — so results are
    invariant across job counts, and with a single zone this delegates
    to (and is bitwise identical to) {!solve}.  This is the only
    parallel TRW-S schedule; [jobs] resolves via
    {!Netdiv_par.Pool.resolve_jobs}.  [interrupt] is polled once per
    round and inside every zone solve, so it must be safe to call from
    several domains (wall-clock reads are); when it fires before the
    first round the all-zero labeling and its energy are returned.  Memory
    peaks at one zone submodel plus message slabs per in-flight zone
    rather than the whole-model slabs of {!solve}. *)

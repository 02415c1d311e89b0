(** Structure-specialized min-sum message kernels.

    The TRW-S/BP hot path computes, for every directed edge message, the
    min-sum reduction

    {v out(x_o) = min_{x_s} h(x_s) + V(x_s, x_o) v}

    over an interned pairwise table [V].  Done naively this is O(L²) per
    message, yet in a diversification MRF almost every edge carries one
    of a handful of highly structured tables.  This module classifies
    each distinct table {e once}, at intern time, and provides an
    allocation-free [update] that exploits the structure:

    - {b Potts / uniform-off-diagonal} (square, every off-diagonal entry
      equal): the diversity objective's dominant shape — a constant
      penalty when two hosts pick similar products, zero otherwise.
      O(L) per message via a global min plus per-label correction.
    - {b constant-plus-sparse} (a base value with few deviating
      entries, as produced by near-uniform Jaccard rows and big-M
      combination constraints with few exceptions): O(L·(d+1) + nnz)
      per message where [d] is the largest per-row/column deviation
      count.
    - {b generic}: the exact O(L²) scan, reading a precomputed [h]
      instead of recomputing it per inner iteration.

    All three kernels produce {e bitwise identical} messages: the
    specialized paths reorder only [min] reductions (associative and
    commutative for non-NaN floats) and perform the same [+.] on the
    same operands — monotonicity of IEEE rounding does the rest.  Any
    table containing a non-finite entry is classified [Generic] so that
    NaN propagation semantics never change.

    Message storage is {e unboxed}: [update] reads its reduction input
    from and writes its output into [floatarray] slabs ([Float.Array]),
    so solver message buffers are flat runs of doubles with no per-cell
    boxing and the kernels stream over contiguous memory.  The
    [( .%() )] / [( .%()<- )] index operators below are the shared
    accessors for those slabs. *)

external ( .%() ) : floatarray -> int -> float = "%floatarray_safe_get"
(** [slab.%(i)] — bounds-checked unboxed read from a float slab. *)

external ( .%()<- ) : floatarray -> int -> float -> unit
  = "%floatarray_safe_set"
(** [slab.%(i) <- v] — bounds-checked unboxed store into a float slab. *)

type t =
  | Potts of { off : float; diag : float array }
      (** Square [k×k]; [V(i,j) = off] for [i <> j], [diag.(i)] on the
          diagonal. *)
  | Const_sparse of {
      base : float;  (** the modal table entry *)
      nnz : int;  (** number of entries deviating from [base] *)
      max_line_nnz : int;
          (** largest deviation count of any single row or column *)
      col_idx : int array array;
          (** per output column [xv]: deviating rows [xu], ascending *)
      col_val : float array array;  (** matching table values *)
      row_idx : int array array;
          (** per output row [xu]: deviating columns [xv], ascending *)
      row_val : float array array;  (** matching table values *)
    }
  | Generic

val classify : ku:int -> kv:int -> float array -> t
(** [classify ~ku ~kv tab] inspects a row-major [ku*kv] table (entry
    [xu * kv + xv]) and returns the cheapest kernel whose estimated
    per-message cost beats the generic scan.  Tables that {e almost}
    qualify — one off-diagonal outlier, or deviation lines too dense to
    pay — come back [Generic].  Non-finite entries force [Generic]. *)

val kind_name : t -> string
(** ["potts"], ["const-sparse"] or ["generic"]. *)

type scratch = {
  h : floatarray;  (** caller-filled reduction input, length ≥ k_src *)
  fresh : floatarray;
      (** kernel output staging for damped updates (BP), length ≥ max L *)
  sel_v : floatarray;  (** internal: smallest-values selection buffer *)
  sel_i : int array;  (** internal: matching indices *)
}

val make_scratch : max_labels:int -> scratch
(** Preallocates every buffer [update] may need for label counts up to
    [max_labels]; one scratch per solver {e worker} (each parallel chunk
    owns its own), reused across all messages so the hot path never
    allocates. *)

val update :
  t ->
  pot:float array ->
  p0:int ->
  src_is_u:bool ->
  k_src:int ->
  k_out:int ->
  scratch:scratch ->
  out:floatarray ->
  out_off:int ->
  float
(** [update cls ~pot ~p0 ~src_is_u ~k_src ~k_out ~scratch ~out ~out_off]
    writes [out.(out_off + x_o) = min_{x_s} scratch.h.(x_s) + V(x_s, x_o)]
    for every output label and returns the minimum over outputs (for the
    caller's normalization).  [V] lives flat at [pot.(p0 ...)], row-major
    by the {e u} endpoint's label; [src_is_u] selects the orientation.
    The caller must have filled [scratch.h.(0 .. k_src-1)]. *)

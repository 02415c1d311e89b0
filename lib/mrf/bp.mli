(** Loopy min-sum belief propagation (baseline).

    The paper discusses BP as the common alternative to graph-cuts but
    prefers TRW-S because BP "might not converge" on loopy graphs
    (Section V-C).  This damped, sequential min-sum implementation serves
    as that baseline: it provides no dual bound and no convergence
    guarantee, which the ablation benches demonstrate. *)

type config = {
  max_iters : int;
  tolerance : float;   (** stop when no message changes more than this *)
  damping : float;     (** new = (1-d)*update + d*old; 0 = undamped *)
  init_noise : float;
      (** deterministic initial message jitter in [0,noise); breaks the
          symmetric all-zero fixed point on label-symmetric models *)
}

val default_config : config
(** 100 iterations, tolerance 1e-7, damping 0.3, noise 1e-4. *)

val solve :
  ?config:config ->
  ?interrupt:(unit -> bool) ->
  ?on_progress:(iter:int -> energy:float -> bound:float -> unit) ->
  Mrf.t ->
  Solver.result
(** [interrupt] is polled once per sweep; on [true] the best decoded
    labeling so far is returned.  [on_progress] fires after each sweep
    with [bound = neg_infinity] (BP provides no dual bound). *)

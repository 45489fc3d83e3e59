(** SOCRATES-style lookahead search with the metarule control parameters
    of [CoBa85]: breadth B, depth D_max, application depth D_app,
    neighbourhood N and per-move cost tolerance Δcost. *)

type params = {
  b : int;
  d_max : int;
  d_app : int;
  n_hood : int;
  delta_cost : float;
}

val default_params : params

type stats = { mutable nodes : int; mutable evals : int }

val step :
  ?params:params ->
  ?stats:stats ->
  ?budget:Budget.t ->
  ?exec:Milo_parallel.Exec.t ->
  cost_factory:(Rule.context -> unit -> float) ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  float option
(** One lookahead step: build the bounded search tree, execute the
    first D_app moves of the best sequence, return the realized gain.
    Root moves are scored by one supervised task per rule on forked
    snapshots ([cost_factory] builds each task's cost function, and
    the root cost on the caller's context), the top-B branches are each
    explored by their own task, and results merge in submission order
    (stable rank, first-best tie-breaks) before the winning prefix is
    re-applied on the caller's context.  An exhausted [budget] returns
    [None]; faulting tasks quarantine their rule; the step never raises
    from a task and never hangs on one.  [exec] defaults to
    [Exec.inline ()]; every plan gives identical results. *)

val run :
  ?params:params ->
  ?max_steps:int ->
  ?stats:stats ->
  ?budget:Budget.t ->
  ?exec:Milo_parallel.Exec.t ->
  cost_factory:(Rule.context -> unit -> float) ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  float
(** Iterate lookahead {!step}s to quiescence, [max_steps], or budget
    exhaustion; returns the total gain. *)

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
  cost_factory:(Rule.context -> unit -> float) ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  float option
(** One lookahead step: build the bounded search tree, execute the
    first D_app moves of the best sequence, return the realized gain.
    The whole tree is searched depth-first by one supervised task
    ({!Engine.fan_out}) on a fork of the context: [cost_factory] builds
    the fork's cost function, and the root cost on the caller's
    context.  Each node ranks its moves by gain with a stable sort and
    explores the top B in rank order, so the first-best sequence wins
    ties.  The coordinator records the task's evaluations in the order
    they were made, charges them to [budget], and commits the winning
    prefix through {!Engine.commit_app}, stopping at the first move
    that no longer applies.  A quarantined rule matches nothing at any
    depth, and a rule whose [find] raises is quarantined under its own
    name.  An exhausted [budget] returns [None]; a task that faults
    (past the budget's deadline) ends the step with [None]; the step
    never raises from the task.  With [d_max = 0] the tree is the root
    alone and the step returns [None]. *)

val run :
  ?params:params ->
  ?max_steps:int ->
  ?stats:stats ->
  ?budget:Budget.t ->
  cost_factory:(Rule.context -> unit -> float) ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  float
(** Iterate lookahead {!step}s to quiescence, [max_steps], or budget
    exhaustion; returns the total gain. *)

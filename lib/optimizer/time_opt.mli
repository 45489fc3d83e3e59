(** The time optimizer of Figure 8: strategy selection by slack over the
    most critical path, keeping only transformations that reduce the
    worst endpoint arrival. *)

module R = Milo_rules.Rule

type step = {
  step_strategy : string;
  step_detail : string;
  delay_before : float;
  delay_after : float;
}

type outcome = { met : bool; final_delay : float; steps : step list }

val analyze : R.context -> Milo_timing.Sta.t
(** The live timing view of the context's measurer.  Raises
    [Invalid_argument] when the context has no measurer, like every
    function here. *)

val worst : R.context -> float
(** The measurer's worst endpoint arrival. *)

val try_strategy :
  ?budget:Milo_rules.Budget.t ->
  R.context ->
  cleanups:R.t list ->
  Strategies.strategy ->
  step option

val optimize :
  ?exec:Milo_parallel.Exec.t ->
  ?required:float ->
  ?max_steps:int ->
  ?budget:Milo_rules.Budget.t ->
  cleanups:R.t list ->
  R.context ->
  outcome
(** Stops at the constraint, [max_steps], strategy exhaustion, or
    budget exhaustion — in the last case the outcome reports the
    best-so-far delay.  The context must carry a measurer (its input
    arrivals are the ones timing sees).

    Each iteration tries the eligible strategies in slack order, one at
    a time: a strategy's oracle runs as one supervised task on a forked
    snapshot, measuring by delta on the fork's measurer, and is charged
    one budget evaluation.  The first strategy the oracle says helps is
    re-applied authoritatively, and the first that the re-run confirms
    ends the iteration; later strategies are not tried.  A faulting
    oracle quarantines its strategy under ["strategy:NAME"] for the
    rest of the run, before the next strategy's oracle is forked.
    [exec] defaults to [Exec.inline ()]; the dispatch is the same for
    every [exec]. *)

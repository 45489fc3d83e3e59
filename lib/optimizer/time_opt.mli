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
(** One try, in place on the context, charged one budget evaluation:
    apply the strategy to the most critical path, run [cleanups],
    measure by delta on the context's measurer, and commit only if the
    worst arrival strictly falls without a runaway area cost.  A
    refused try leaves no trace: the design is undone (its fresh-id
    counters included), the measurer retreats exactly and the rule
    guard is rewound ({!Milo_rules.Engine.guard_rewind}).  A strategy
    whose [run] raises is refused the same way and quarantined under
    ["strategy:NAME"] with reason [Raised] and the exception as its
    message; [Out_of_memory] and [Stack_overflow] are re-raised, and
    [Milo_measure.Measure.Divergence] from the measurer stays loud. *)

val try_all :
  ?budget:Milo_rules.Budget.t ->
  R.context ->
  cleanups:R.t list ->
  Strategies.strategy list ->
  step option
(** One iteration of Figure 8: {!try_strategy} on each strategy in
    turn, skipping quarantined ones, until one helps; the strategies
    after it are not tried.  The budget is checked before each try, and
    an exhausted budget ends the iteration; a try that has started runs
    to its end. *)

val optimize :
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

    Each iteration is one {!try_all} over the eligible strategies in
    slack order ({!Strategies.order_for}): every strategy is tried once,
    on the design it optimizes, and the first that helps is the
    iteration's step.  Nothing is forked and nothing is re-run, so the
    dispatch is sequential, and the same whatever plan the run's other
    passes fan out on. *)

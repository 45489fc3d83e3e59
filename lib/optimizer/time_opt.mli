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

val analyze :
  R.context -> input_arrivals:(string * float) list -> Milo_timing.Sta.t

val worst : R.context -> input_arrivals:(string * float) list -> float

val try_strategy :
  ?budget:Milo_rules.Budget.t ->
  R.context ->
  input_arrivals:(string * float) list ->
  cleanups:R.t list ->
  Strategies.strategy ->
  step option

val optimize :
  ?exec:Milo_parallel.Exec.t ->
  ?required:float ->
  ?input_arrivals:(string * float) list ->
  ?max_steps:int ->
  ?budget:Milo_rules.Budget.t ->
  cleanups:R.t list ->
  R.context ->
  outcome
(** Stops at the constraint, [max_steps], strategy exhaustion, or
    budget exhaustion — in the last case the outcome reports the
    best-so-far delay.

    Each iteration tries every eligible strategy speculatively as a
    supervised task on a forked snapshot and re-applies the first
    success (in strategy order) authoritatively; a faulting strategy
    task is quarantined under ["strategy:NAME"] for the rest of the
    run.  [exec] defaults to [Exec.inline ()]. *)

val minimize_delay :
  ?exec:Milo_parallel.Exec.t ->
  ?input_arrivals:(string * float) list ->
  ?max_steps:int ->
  ?budget:Milo_rules.Budget.t ->
  cleanups:R.t list ->
  R.context ->
  outcome

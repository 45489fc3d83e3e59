(** The area optimizer: gain-measured greedy (or lookahead) application
    of area rules under a timing-constraint penalty. *)

module R = Milo_rules.Rule

val cost_fn :
  ?required:float ->
  ?input_arrivals:(string * float) list ->
  R.context ->
  unit ->
  float

val optimize :
  ?exec:Milo_parallel.Exec.t ->
  ?required:float ->
  ?input_arrivals:(string * float) list ->
  ?max_steps:int ->
  ?budget:Milo_rules.Budget.t ->
  rules:R.t list ->
  cleanups:R.t list ->
  R.context ->
  Milo_rules.Engine.application list
(** Candidate evaluation fans out per rule onto supervised tasks
    ({!Milo_rules.Engine.greedy_pass}); [exec] defaults to
    [Exec.inline ()]. *)

val optimize_lookahead :
  ?exec:Milo_parallel.Exec.t ->
  ?required:float ->
  ?input_arrivals:(string * float) list ->
  ?params:Milo_rules.Search.params ->
  ?stats:Milo_rules.Search.stats ->
  ?budget:Milo_rules.Budget.t ->
  rules:R.t list ->
  cleanups:R.t list ->
  R.context ->
  float

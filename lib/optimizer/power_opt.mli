(** The power optimizer: power-weighted greedy rule application under
    the timing constraint. *)

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

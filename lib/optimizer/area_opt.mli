(** The area optimizer: gain-measured greedy application of area rules
    under a timing-constraint penalty. *)

module R = Milo_rules.Rule

val cost_fn : ?required:float -> R.context -> unit -> float
(** Area plus a power share plus a penalty past [required], read off
    the context's measurer.  Raises [Invalid_argument] when the
    context has none. *)

val optimize :
  ?exec:Milo_parallel.Exec.t ->
  ?required:float ->
  ?max_steps:int ->
  ?budget:Milo_rules.Budget.t ->
  rules:R.t list ->
  cleanups:R.t list ->
  R.context ->
  Milo_rules.Engine.application list
(** Candidate evaluation fans out per rule onto supervised tasks
    ({!Milo_rules.Engine.greedy_pass}), each measuring by delta on a
    fork of the context's measurer, which must be installed; [exec]
    defaults to [Exec.inline ()]. *)

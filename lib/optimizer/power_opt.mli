(** The power optimizer: power-weighted greedy rule application under
    the timing constraint. *)

module R = Milo_rules.Rule

val cost_fn : ?required:float -> R.context -> unit -> float
(** Power plus an area share plus a penalty past [required], read off
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

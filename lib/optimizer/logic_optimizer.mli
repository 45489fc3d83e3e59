(** The hierarchical logic optimizer of Figure 18: map and optimize each
    compiled sub-design bottom-up, expand level by level, then meet
    timing and recover area on the flat technology design. *)

module D = Milo_netlist.Design

type report_entry = {
  level_design : string;
  applications : int;
  area_before : float;
  area_after : float;
}

type report = {
  entries : report_entry list;
  timing : Time_opt.outcome option;
}

val instance_order : Milo_compilers.Database.t -> D.t -> string list
(** Sub-design names reachable from a design, deepest first. *)

val level_weight :
  Milo_techmap.Table_map.target ->
  Milo_compilers.Database.t ->
  Milo_netlist.Types.kind ->
  float
(** The per-level passes' weight of one component: its macro's area,
    an instance's already-optimized sub-design in the technology
    database, 0 for any other kind.  The pass scores candidates with it
    as an [Engine.Per_comp] cost.  Each application keeps its own memo
    of instance weights, valid while no sub-design is registered into
    the database; call the resulting function from one domain. *)

val level_cost :
  Milo_techmap.Table_map.target ->
  Milo_compilers.Database.t ->
  Milo_rules.Rule.context ->
  unit ->
  float
(** The per-level passes' structural cost: the left fold of
    {!level_weight} over the components in id order, from [0.0] —
    total macro area, with each instance costed as its
    already-optimized sub-design.  The greedy pass's [Per_comp] replay
    computes exactly this float. *)

val map_levels :
  exec:Milo_parallel.Exec.t ->
  session:Milo_rules.Rule.session ->
  ?budget:Milo_rules.Budget.t ->
  Milo_compilers.Database.t ->
  Milo_techmap.Table_map.target ->
  D.t ->
  D.t * report_entry list
(** Figure 18's steps 1–2: [map_levels db target design] maps and
    greedily optimizes every compiled sub-design of [design] (from
    [Compile.expand_design]), deepest first, then maps the top level
    and expands it one level at a time, optimizing after each
    expansion.  Returns the flat technology-mapped design and the
    per-level report entries, in the order the levels were optimized.
    The flow checkpoints this design as its techmap stage. *)

val flat_passes :
  exec:Milo_parallel.Exec.t ->
  session:Milo_rules.Rule.session ->
  required:float ->
  input_arrivals:(string * float) list ->
  ?budget:Milo_rules.Budget.t ->
  Milo_techmap.Table_map.target ->
  D.t ->
  Time_opt.outcome option
(** Figure 18's step 3, in place on a flat technology-mapped design
    (one {!map_levels} returned): electric cleanups, timing against
    [required], area recovery off the critical paths, electric again.
    Returns the timing outcome ([None] when [required] is [infinity]).
    A flat design has no [Instance] kinds, so no technology database
    is needed.  One [Milo_measure.Measure] sits in the rule context for
    the whole call: the timing pass tries each strategy on it in place,
    and every worker fork of the area pass carries a fork of it, so
    both evaluate candidates by delta-STA and streaming totals instead
    of full recomputes.  [exec] is the area pass's plan; the timing
    pass forks nothing. *)

val optimize :
  ?exec:Milo_parallel.Exec.t ->
  ?session:Milo_rules.Rule.session ->
  ?required:float ->
  ?input_arrivals:(string * float) list ->
  ?budget:Milo_rules.Budget.t ->
  Milo_compilers.Database.t ->
  Milo_techmap.Table_map.target ->
  D.t ->
  D.t * report
(** [optimize db target design] is {!map_levels} then {!flat_passes}
    under one session: it takes a hierarchical generic design and
    returns the flat, optimized, technology-specific design with a
    per-level report.  [budget] bounds every optimization pass
    (per-level greedy, timing strategies, area recovery); mapping and
    flattening always complete, so an exhausted budget degrades to the
    mapped-but-unoptimized design.

    [exec] (default [Exec.inline ()]) is the execution plan of the
    per-rule candidate fan-out of the per-level greedy passes and of
    area recovery; the timing strategies are tried in place, one at a
    time, whatever the plan.  Every context the optimizer builds
    carries [session] (default: a fresh one), so quarantine, rule guard
    and certificates span the whole optimization. *)

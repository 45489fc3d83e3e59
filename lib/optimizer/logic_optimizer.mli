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

val optimize :
  ?exec:Milo_parallel.Exec.t ->
  ?session:Milo_rules.Rule.session ->
  ?required:float ->
  ?input_arrivals:(string * float) list ->
  ?on_mapped:(D.t -> report_entry list -> unit) ->
  ?budget:Milo_rules.Budget.t ->
  Milo_compilers.Database.t ->
  Milo_techmap.Table_map.target ->
  D.t ->
  D.t * report
(** [optimize db target design] takes a hierarchical generic design
    (from [Compile.expand_design]) and returns the flat, optimized,
    technology-specific design with a per-level report.  [on_mapped] is
    called on the flat technology-mapped design — together with the
    per-level report entries accumulated so far, which the flow's
    journal records at the techmap checkpoint — before the timing/area
    optimization phase (the flow's post-techmap lint hook).  [budget]
    bounds every optimization pass (per-level greedy, timing strategies,
    area recovery); mapping and flattening always complete, so an
    exhausted budget degrades to the mapped-but-unoptimized design.
    One [Milo_measure.Measure] per flat optimization stage sits in the
    rule context, and every worker fork carries a fork of it, so the
    timing and area passes evaluate candidates by delta-STA and
    streaming totals instead of full recomputes.

    [exec] (default [Exec.inline ()]) is the execution plan of every
    pass: per-level greedy, the strategy oracles (one at a time) and
    per-rule candidate fan-out.  Every context the optimizer builds
    carries [session] (default: a fresh one), so quarantine, rule guard
    and certificates span the whole optimization. *)

val optimize_flat :
  ?exec:Milo_parallel.Exec.t ->
  ?session:Milo_rules.Rule.session ->
  ?required:float ->
  ?input_arrivals:(string * float) list ->
  ?budget:Milo_rules.Budget.t ->
  Milo_techmap.Table_map.target ->
  D.t ->
  D.t * report
(** Re-enter the optimizer at step 3 with an already flat,
    technology-mapped design (a restored Techmap checkpoint): electric
    cleanups, timing against the constraint, area recovery, electric
    again.  The journal-resume entry point.  The report's [entries] are
    empty — per-level history belongs to the interrupted run and is
    restored from its checkpoint record. *)

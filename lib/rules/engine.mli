(** The recognize–act engine: OPS-style strictly rule-based control
    (refraction / recency / specificity), and measured greedy control
    with cleanup-rule lookahead (the Logic Consultant's discipline). *)

module D = Milo_netlist.Design

type measure = Milo_measure.Measure.totals = {
  delay : float;
  area : float;
  power : float;
}

type objective = measure -> float

val weighted :
  ?w_delay:float -> ?w_area:float -> ?w_power:float -> unit -> objective

val measure_fn :
  Rule.context -> input_arrivals:(string * float) list -> unit -> measure
(** Timing/area/power of the current (technology-mapped) design. *)

exception Lint_violation of string * string
(** Raised in debug-lint mode when a rule application breaks a
    structural invariant: (rule name, lint report). *)

val set_debug_lint : Rule.session -> bool -> unit
(** When enabled, the engine re-checks the structural lint invariants
    ([Milo_lint.Lint.structural_rules]) after every rule application
    through a context carrying this session, and raises
    {!Lint_violation} naming the offending rule.  Costs a full design
    scan per application — debugging only.  Off by default. *)

type reason = Rule.reason =
  | Raised  (** the rule's [apply] or [find] raised (or failed debug-lint) *)
  | Miscompiled
      (** the semantic guard caught the rule changing its site's
          function; the application was reverted *)

val reason_name : reason -> string
(** ["raised"] / ["miscompiled"]. *)

(** {2 Rule quarantine}

    A rule whose [apply] (or [find]) raises, or whose result debug-lint
    or the rule guard flags, inside a measured pass is rolled back
    through the change log and quarantined: it matches nothing for the
    rest of the session, instead of the exception aborting the pass.
    The quarantine lives in the {!Rule.session}, so it is per run. *)

val is_quarantined : Rule.session -> string -> bool

val note_failure_named :
  Rule.session -> reason:reason -> string -> string -> unit
(** [note_failure_named s ~reason name msg] counts one failure of
    [name] — a rule, or a whole strategy as ["strategy:NAME"] —
    quarantining it with [reason] and [msg] on its first failure.  In a
    worker fork's session the failure is trapped for the coordinator
    to import instead. *)

val quarantined : Rule.session -> (string * int) list
(** Quarantined rules with the number of failed applications trapped
    for each, sorted by name. *)

val quarantined_errors : Rule.session -> (string * string) list
(** For each quarantined rule, the message of the {e first} failure
    trapped from it (later failures only bump the count) — the raw
    material for [Report.partial_summary]'s diagnosis lines.  Sorted by
    name. *)

val quarantined_reasons : Rule.session -> (string * reason) list
(** Why each quarantined rule was quarantined (the reason of its first
    trapped failure).  Sorted by name. *)

val quarantine_dump : Rule.session -> (string * int * string * reason) list
(** Full quarantine image — rule, trapped-failure count, first error
    message, reason — sorted by name.  Journaled at flow checkpoints so
    a resumed run can restore it. *)

val quarantine_restore :
  Rule.session -> (string * int * string * reason) list -> unit
(** Replace the quarantine with a recorded image (journal resume). *)

(** {2 Supervised fan-out}

    Every oracle the optimizer runs — the greedy step's candidate
    scoring ({!greedy_step}) and the lookahead's search
    ([Search.step]) — is a task of {!fan_out}, on a forked context
    ({!Rule.fork_context}).  (The time optimizer runs no oracle: it
    tries each strategy once, in place, and undoes a refused try; see
    [Time_opt.try_strategy].)  Inside a task the engine's observable
    machinery is suspended: tracing is suppressed on the domain, the
    fork's design has no commit hook (so nothing it commits is
    recorded), its measurer (if any) is a fork of the coordinator's,
    the fork's session has no rule guard (verdict [Unguarded], no stats
    ticks), and its failures are collected and handed back.  Only the
    merged winner is then re-applied authoritatively on the
    coordinator — which is what keeps every observable stream
    bit-identical across domain counts. *)

val fan_out :
  exec:Milo_parallel.Exec.t ->
  Rule.context ->
  (string option * (Rule.context -> 'a)) list ->
  'a option array
(** [fan_out ~exec ctx tasks] runs each [(key, f)] under [exec] as one
    supervised task: [f] on a fresh fork of [ctx], made on the task's
    domain.  Then, in task order, it imports each task's trapped
    failures into [ctx]'s quarantine, or, for a task that faulted
    (raised, overran its deadline or stalled), quarantines [key] — what
    the task stands for, if anything: a rule — with reason {!Raised}
    and the message
    ["parallel task: <fault>"].  Slot [i] is task [i]'s value, [None]
    if it faulted.  Never raises from a task and never hangs on one. *)

(** {2 Semantic rule guard}

    When armed, every successful [guarded_apply] may be re-simulated
    over the touched cone: {!Cone.sweep} snapshots the site's output
    nets over their fan-in leaves (up to 8) before the apply, and
    {!Cone.recheck} compares after it.  The engine owns only the
    policy — when to check, a truth-vector cache keyed on
    [technology:digest], and the witness text.  A divergence is rolled
    back and the rule quarantined with reason {!Miscompiled} and the
    message [miscompile: net X changed function under {...}].  The
    check is conservative: nets whose new structure cannot be
    evaluated over the old leaves ({!Cone.Unverifiable}) are skipped
    (the flow's stage guards backstop them), so a sound rule is never
    quarantined. *)

val set_rule_guard :
  Rule.session ->
  ?budget:Budget.t -> ?stats:Milo_guard.Guard.stats ->
  Milo_guard.Guard.policy -> unit
(** Arm (or, with [Off], disarm) the session's rule guard.  [Sampled]
    checks the first application of each rule and then every 16th
    opportunity, and stops checking once [budget] is exhausted; [Full]
    checks every application.  Counters accumulate into [stats] when
    given. *)

val rule_guard_stats : Rule.session -> Milo_guard.Guard.stats option
(** Counters of the session's armed rule guard, if any. *)

val guard_sample_state : Rule.session -> (int * string list) option
(** The [Sampled] tier's deterministic position — tick counter and the
    set of rules already checked once — journaled at flow checkpoints;
    [None] when no rule guard is armed. *)

val restore_guard_sample_state : Rule.session -> int -> string list -> unit
(** Re-enter the sampling sequence at a recorded position (journal
    resume).  No-op when no rule guard is armed. *)

type guard_mark

val guard_mark : Rule.session -> guard_mark
(** The armed rule guard's sampling position and its check, skip and
    certified counts, before a try made in place on the coordinator. *)

val guard_rewind : Rule.session -> guard_mark -> unit
(** Put the guard back at a mark when the try is refused, so only the
    applications that are kept tick it — as when candidates are tried
    on unguarded forks.  A miscompile caught since the mark stays in
    [rule_mismatches], as its quarantine stays.  No-op when no rule
    guard is armed. *)

val set_certified : Rule.session -> string list -> unit
(** Install the rules holding a static Certified certificate (proved
    sound offline by [Milo_absint.Certify]: exhaustive truth-table
    enumeration over their rewrite cones).  Their applications skip
    the dynamic cone re-simulation entirely — counted in
    [stats.rule_certified] — so a [Full] rule guard costs only the
    flow's stage-boundary checks.  Quarantine still dominates a
    certificate. *)

val guarded_find : Rule.context -> Rule.t -> Rule.site list
(** [find] with quarantine: a raising or quarantined rule matches
    nothing. *)

val guarded_apply : Rule.context -> Rule.t -> Rule.site -> D.log -> bool
(** Transactional [apply]: edits go to a private sub-log, spliced into
    the given log on success; on an exception (or a debug-lint
    violation) the edits are undone, the rule is quarantined and the
    result is [false]. *)

val run_cleanups : Rule.context -> Rule.t list -> D.log -> unit
(** Fire applicable cleanup rules to a bounded fixpoint, recording into
    the same log.  The bound charges successful applications only. *)

val neighbourhood : Rule.context -> int list -> int -> (int, unit) Hashtbl.t
(** [neighbourhood ctx seeds n]: component ids within [n] hops of the
    seeds, a hop being a shared net (radius 0 is the seeds alone).
    Used by the lookahead's N metarule. *)

val extent :
  D.t -> D.entry list -> (int, unit) Hashtbl.t * (int, unit) Hashtbl.t
(** [extent design entries]: the components and the nets of some
    edits' extent — what they can have changed in any component's
    radius-1 view (its kind and connections, and for each of its nets
    the pins, the port binding and the kinds on it).  The components
    are every component the entries add, remove, reconnect or re-kind,
    every component on a net they touch and every component on a net
    of a re-kinded component; the nets are the touched nets.  Nets are
    read on [design] as it is now.  Under the locality contract
    ({!Rule.scan_comps}) its components are exactly the anchors whose
    match the edits can have changed: {!run_cleanups_near} focuses on
    it, and a {!table} is refreshed on it after each commit or firing. *)

val run_cleanups_near : Rule.context -> Rule.t list -> D.log -> unit
(** {!run_cleanups} for a design that was cleanup-quiet (no live
    cleanup rule matched anywhere) before the
    edits in the log: each [find] is focused ([Rule.focus]) on the
    edits' {!extent}, recomputed as the log grows.  Under the cleanup
    locality contract ({!Rule.scan_comps}) only an anchor in the extent
    can match, so it fires exactly the sites {!run_cleanups} would, in
    the same order. *)

(** {2 Incremental measurement lock-step}

    When [ctx.measurer] is set (see [Milo_measure.Measure]), the
    measured disciplines keep it synchronized with the design.  After
    applying edits into a log, call {!measure_step}; then pair
    [D.undo]+{!measure_drop} or [D.commit]+{!measure_keep}. *)

type mstep =
  | No_measurer  (** context carries no measurer: nothing to sync *)
  | Advanced of Milo_measure.Measure.token
  | Measure_failed
      (** the advance raised (unmeasurable candidate state); dropping
          is free, keeping forces a full resync *)

val measure_step : Rule.context -> D.log -> mstep
(** Fold the log's entries into the context's measurer, if any.
    [Out_of_memory], [Stack_overflow] and [Measure.Divergence]
    propagate; any other failure yields [Measure_failed] with the
    measurer state unchanged. *)

val measure_drop : Rule.context -> mstep -> unit
(** After [D.undo] of the same log: retreat the measurer exactly. *)

val measure_keep : Rule.context -> mstep -> unit
(** After [D.commit] of the same log: keep the advanced state
    (resyncing from scratch if the step had failed). *)

type application = { rule : Rule.t; site : Rule.site; gain : float }

val commit_app :
  ?budget:Budget.t ->
  near:bool ->
  Rule.context ->
  cleanups:Rule.t list ->
  application ->
  D.entry list option
(** The authoritative commit of a chosen application: re-apply it
    through {!guarded_apply} (under the rule guard), run the cleanups
    ({!run_cleanups_near} when [near], else {!run_cleanups}), keep the
    measurer step, and commit with the application's attribution and
    guard verdict; advance the session's shared analysis over the
    committed entries, charge [budget] one step and note the apply to
    the tracer.  Returns the committed entries, or [None] when the
    apply was refused (everything it recorded rolled back). *)

(** {2 Greedy control} *)

(** The cost a greedy pass lowers. *)
type cost =
  | Measured of (Rule.context -> unit -> float)
      (** a cost of the whole design state; the function builds it over
          a (forked) context.  A candidate's gain is measured on its
          fork, and no evaluation is kept across a commit. *)
  | Per_comp of (Milo_netlist.Types.kind -> float)
      (** the left fold of a per-component weight, [acc +. weight kind],
          over the components in id order from [0.0] (the per-level
          [Logic_optimizer.level_cost]).  The weight is read only on
          the coordinator; one that raises rejects the candidate
          (["cost-failed"]).  A pass keeps each local candidate's
          effect in its table across commits (see {!greedy_step}). *)

type eval = {
  result : (float, string) result;
      (** [Ok gain] (cost decrease including cleanups), or [Error
          reason] for a rejected candidate: ["apply-failed"],
          ["unmeasurable"] or ["cost-failed"] *)
  dt : float;  (** wall time of the evaluation, seconds *)
}

val evaluate :
  Rule.context ->
  before:float ->
  cost:(unit -> float) ->
  quiet:bool ->
  cleanups:Rule.t list ->
  Rule.t ->
  Rule.site ->
  eval
(** A {!Measured} evaluation: gain of applying the rule (with cleanups)
    at the site — apply, measure, undo.  [before] is [cost ()] of the
    current state — the undo is exact, so one baseline serves every
    candidate scored from the same state.  [quiet] asserts that no live
    cleanup matches anywhere in the state: the cleanups then run as
    {!run_cleanups_near}, otherwise as {!run_cleanups}.  Nothing is
    traced here — evaluations run in worker tasks — so the outcome
    comes back as a value for {!record_eval}.  (A {!Per_comp} evaluation runs the same apply and
    cleanups but hands back the candidate's effect — the components it
    removes, re-kinds and adds — and what it read, for the coordinator
    to score and keep.) *)

val record_eval : Rule.t -> eval -> unit
(** Report one evaluation to the ambient tracer, if any: the
    [engine.eval_us] histogram and the per-rule attribution table,
    where a rejected candidate counts as a refusal.  The coordinator
    calls it in task order, for the evaluations made (not for the
    outcomes a pass's table answers). *)

type table
(** The conflict set of a greedy pass: each local rule's site list on
    one state (design and {!D.generation}), the cleanups' included, and
    on each kept site its last {!Per_comp} evaluation — its effect (or
    rejection reason) and what it read, the components and nets of its
    extent less the ids the candidate itself added (those are gone
    after its undo, which hands them back for the next commit to
    reuse).  After each commit, one refresh on the commit's {!extent}
    keeps every list and evaluation exact (see {!greedy_step}). *)

val new_table : unit -> table

val kept_reads : table -> (int list * int list) list
(** What each evaluation the table keeps read: its component ids and
    net ids, every one of which names a component or net of the state
    the evaluation was kept on. *)

val sites : table -> Rule.context -> Rule.t -> Rule.site list
(** A rule's sites on the current state, as {!greedy_step} scores them.
    For a rule declared [local], the list the table keeps when it
    describes this state, else a full {!guarded_find}, kept for the next
    call; a quarantined rule matches nothing.  Any other rule is found
    in full every call.  The state is cleanup-quiet when every
    cleanup's sites are empty. *)

val candidate_gains :
  ?table:table ->
  exec:Milo_parallel.Exec.t ->
  cost:cost ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  (Rule.t * Rule.site * (float, string) result) list
(** Every candidate of the current state with its gain or rejection
    reason, in merge order (rule index, site ordinal), exactly as
    {!greedy_step} scores them; commits nothing.  [table] (default: a
    fresh one) answers what it can and keeps the new evaluations. *)

(** What one greedy step did. *)
type step =
  | Committed of application
  | Refused
      (** the winner's guarded commit was rolled back and its rule
          quarantined; other candidates may still improve *)
  | Quiescent
      (** no candidate improves the cost by more than 1e-9, the budget
          is exhausted, or a refused commit quarantined nothing *)

val greedy_step :
  ?budget:Budget.t ->
  ?table:table ->
  exec:Milo_parallel.Exec.t ->
  cost:cost ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  step
(** One greedy step (the Logic Consultant's measure-the-gain control).
    Every rule's sites, and whether the state is cleanup-quiet, are
    read on the coordinator off the table ({!sites}): a rule declared
    [local] keeps its list there across the steps of a pass, and any
    other rule is found in full each step.  The sites that hold no kept
    evaluation are evaluated by one supervised task per rule on a
    forked snapshot: a {!Measured} cost is measured on the fork (once
    per task for the baseline, once per candidate; by delta when the
    context carries a measurer, which the fork inherits); a {!Per_comp}
    candidate hands back its effect, and the coordinator replays the
    cost's fold over the current design with that effect applied, so
    every gain is bit-identical to a measurement.  When the state is
    cleanup-quiet, the candidates' cleanups are focused on their own
    edits.  The merged winner — (rule index, site ordinal) order,
    earlier candidate wins ties — is re-applied through {!commit_app}
    if it improves the cost by more than 1e-9; when every cleanup is
    local, a commit from a cleanup-quiet state runs its cleanups as
    {!run_cleanups_near}, as the candidates did.

    After a commit, the extent of its entries ({!extent}) is computed
    once.  Each kept list drops its sites anchored in it and splices
    in, by anchor id, what one [find] focused on it matches, so the
    list equals a full scan's, order included; and each surviving site
    forgets an evaluation whose read components or nets meet it.  So no
    local rule is found over the whole design again in the pass, unless
    a refused commit (rolled back, so the design's generation moved)
    leaves the lists describing another state.

    The table keeps the {!Per_comp} evaluations of rules declared
    [local] ({!Rule.t}) when every cleanup is local too, on a
    cleanup-quiet state, when the cleanup cascade stayed inside its
    budget.  A state that is not cleanup-quiet, or a grown quarantine,
    forgets every kept evaluation and keeps the sites.  The budget is
    charged one eval per evaluation made.  A faulting task quarantines
    its rule; the step never raises from a task and never hangs on
    one. *)

val greedy_pass :
  ?max_steps:int ->
  ?budget:Budget.t ->
  ?exec:Milo_parallel.Exec.t ->
  cost:cost ->
  Rule.context ->
  cleanups:Rule.t list ->
  Rule.t list ->
  application list
(** Greedy steps over one table until quiescence, [max_steps] steps
    (refused commits count), or the budget is exhausted — in the last
    case the pass stops cleanly with the applications committed so far.
    A refused commit that quarantined the winner's rule does not end
    the pass.  [exec] defaults to [Exec.inline ()]; every plan gives
    identical results. *)

(** {2 OPS-style recognize–act}

    Each cycle's conflict set is every (rule, site) match not yet fired;
    resolution is refraction, then recency of the matched components,
    then specificity (site size), then rule order.  The winner fires
    through its raw [apply] and [find] — failures stay loud, nothing is
    quarantined — and each firing advances the session's shared
    analysis over its entries. *)

type ops_state

val ops_create : unit -> ops_state

val ops_cycle : Rule.context -> ops_state -> Rule.t list -> bool
(** One cycle, every rule found over the whole design; [false] when the
    conflict set is empty. *)

val ops_run : Rule.context -> Rule.t list -> int
(** The naive matcher: cycles to quiescence, at most 2000; returns the
    cycle count. *)

val ops_run_incremental : Rule.context -> Rule.t list -> int
(** Recognize–act with Rete-style incremental matching: the same cycle
    as {!ops_run}, with each [local] rule's sites kept across firings
    and re-found only on each firing's {!extent}, as a {!table} keeps
    them, and every other rule found in full each cycle.  It fires
    exactly what {!ops_run} fires and ends on the same design.  At most
    100000 cycles; returns the firings that applied. *)

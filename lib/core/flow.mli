(** The MILO flow of Figure 11: microarchitecture critic → logic
    compilers → technology mapper → hierarchical logic optimizer; plus
    the human-baseline comparison flow for the Figure 19 experiment. *)

module D = Milo_netlist.Design

type technology = Ecl | Cmos

val target_of : technology -> Milo_techmap.Table_map.target

val technology_name : technology -> string
(** ["ecl"] / ["cmos"] — the names the journal header and the CLI
    use. *)

val technology_of_string : string -> technology option

val seq_classifier :
  Milo_library.Technology.t list -> Milo_netlist.Types.kind -> bool
(** Sequential-kind classifier for the lint passes: micro kinds via
    [Types.is_sequential_kind], macros looked up in the given
    technologies, instances treated as opaque (sequential). *)

type stats = {
  delay : float;
  area : float;
  power : float;
  gates : int;
  comps : int;
}

val stats_of :
  ?input_arrivals:(string * float) list ->
  Milo_techmap.Table_map.target ->
  D.t ->
  stats
(** Timing/area/power of a technology-mapped design. *)

(** {2 Resilience layer}

    The flow snapshots the design after every completed stage; a failure
    anywhere past capture degrades to a {!Partial} outcome carrying the
    last good checkpoint and a structured error instead of losing all
    intermediate work to an escaping exception. *)

type stage = Capture | Micro | Compile | Techmap | Optimize

val stage_name : stage -> string
val stage_of_string : string -> stage option

type checkpoint = { ck_stage : stage; ck_design : D.t }
(** A deep-copied snapshot of the design after [ck_stage] completed. *)

type error = {
  err_stage : stage;  (** stage that was running when the flow failed *)
  err_exn : exn;  (** the original exception *)
  err_message : string;  (** structured rendering (object names kept) *)
}

type hooks = {
  before_stage : stage -> D.t -> unit;
  on_checkpoint : checkpoint -> unit;
}
(** Observation/injection points for instrumentation and the fault
    harness.  [before_stage] runs before the stage's work, on the design
    about to be transformed; raising from it fails that stage.
    [on_checkpoint] sees every snapshot as it is taken. *)

val no_hooks : hooks

type result = {
  micro_design : D.t;
  micro_applications : (string * string) list;
  optimized : D.t;
  final : stats;
  optimizer_report : Milo_optimizer.Logic_optimizer.report;
  database : Milo_compilers.Database.t;
  lint_findings : (string * Milo_lint.Diagnostic.t list) list;
  checkpoints : checkpoint list;  (** per-stage snapshots, in flow order *)
  quarantined : (string * int) list;
      (** rules quarantined during the run, with trapped-failure counts *)
  quarantine_errors : (string * string) list;
      (** first trapped exception message per quarantined rule, sorted
          by name — the "why" behind the counts *)
  quarantine_reasons : (string * Milo_rules.Engine.reason) list;
      (** why each quarantined rule was trapped: [Raised] (its code
          failed) or [Miscompiled] (the semantic guard caught it
          changing function and reverted it) *)
  guard_stats : Milo_guard.Guard.stats;
      (** semantic-guard counters for the run; all zero when [guard]
          was [Off] *)
  budget : Milo_rules.Budget.status;
  run_trace : Milo_trace.Trace.t option;
      (** the tracer passed to [run ?trace], already flushed:
          queryable for spans, metrics and the [Milo_trace.Profile]
          attributions *)
  certificates : Milo_absint.Certify.certificate list;
      (** static rule certificates established for the run — one per
          logic-level rule when [guard] was armed and [certify] left on,
          empty otherwise *)
  analysis : Milo_absint.Absint.summary option;
      (** abstract-interpretation facts over the optimized design;
          [None] when linting was [Off] *)
  notes : string list;
      (** structured run annotations; contains
          ["Degraded_to_sequential"] when [domains] requested a pool
          that could not be constructed and the run fell back to
          inline (bit-identical) execution *)
}

type partial = {
  failed_stage : stage;
  failure : error;
  last_good : checkpoint;  (** most recent snapshot before the failure *)
  partial_checkpoints : checkpoint list;  (** in flow order *)
  partial_micro_applications : (string * string) list;
  partial_lint_findings : (string * Milo_lint.Diagnostic.t list) list;
  partial_database : Milo_compilers.Database.t;
  partial_quarantined : (string * int) list;
  partial_quarantine_errors : (string * string) list;
  partial_quarantine_reasons : (string * Milo_rules.Engine.reason) list;
  partial_guard_stats : Milo_guard.Guard.stats;
  partial_budget : Milo_rules.Budget.status;
  partial_trace : Milo_trace.Trace.t option;
      (** flushed even on failure: open spans are force-closed, so the
          trace of a degraded run is still balanced and well-formed *)
  partial_notes : string list;  (** same annotations as [result.notes] *)
}

type outcome = Complete of result | Partial of partial

val describe_error : exn -> string
(** Structured rendering of flow failures; keeps the object names typed
    errors ({!Milo_techmap.Table_map.Unmappable}, [Design.Error],
    [Lint_error]) carry. *)

val run :
  ?technology:technology ->
  ?constraints:Constraints.t ->
  ?lint:Milo_lint.Lint.level ->
  ?budget:Milo_rules.Budget.t ->
  ?hooks:hooks ->
  ?trace:Milo_trace.Trace.t ->
  ?guard:Milo_guard.Guard.policy ->
  ?certify:bool ->
  ?journal:string ->
  ?journal_fault:(int -> unit) ->
  ?provenance:Milo_provenance.Provenance.t ->
  ?domains:int ->
  ?force_domains:bool ->
  D.t ->
  outcome
(** Run the full flow.  [lint] (default [Off]) enables the stage
    invariants: the design is linted after the microarchitecture critic,
    after compilation (including every compiled sub-design), after
    technology mapping and after the logic optimizer.  [Warn] reports to
    stderr; [Strict] raises [Milo_lint.Lint.Lint_error] on any
    Error-severity finding.

    [budget] (default unlimited) bounds the optimization searches: on
    exhaustion the rule passes stop cleanly with the best design so far
    and the returned [budget] status has [budget_exhausted] set.  The
    mapping and flattening stages still complete, so a 0-step budget
    yields a [Complete] outcome with an unoptimized mapped design.

    [trace] (default none — zero-overhead) installs the tracer as the
    ambient one for the duration of the run: every stage runs inside a
    [stage:<name>] span under a [flow:<design>] root, the flow's own
    work in it gets a span each ([library], [certify], [lint:<stage>],
    [guard:<stage>], [checkpoint:<stage>]), rule evaluations and
    commits feed the per-rule attribution table and the metrics, and
    the tracer is flushed (sinks run, open spans force-closed) before
    the outcome is returned.  What the run decided is in the record
    stream ([journal], [provenance]), not in the trace.

    [guard] (default [Off]) arms the semantic guard: the compile,
    techmap and optimize stage outputs are equivalence-checked against
    the previous checkpoint (exhaustive for small input counts,
    random-vector and lock-step sequential otherwise), and the engine
    re-simulates committed rule applications over their touched cone
    (candidate evaluations are unguarded oracles; a timing strategy's
    in-place try is guarded, and rewinds the guard when it is refused),
    reverting
    and quarantining any rule caught changing function
    ([Engine.Miscompiled]).  A stage-level mismatch degrades the run
    to [Partial] with a [Milo_guard.Guard.Miscompile] error carrying
    the shrunk failing vector and the diverging output cone.
    [Sampled] checks a subset of rule applications with cheaper
    parameters; [Full] checks everything.

    [certify] (default [true], only meaningful with the guard armed)
    statically certifies the logic-level rules up front
    ({!Milo_absint.Certify}): rules whose rewrite is proved equivalent
    over the certification corpus skip the per-application cone
    re-simulation, collapsing most of the [Full]-guard overhead.  The
    certificates are cached per (rule, technology) across runs and
    returned in [result.certificates].  Pass [~certify:false] to force
    the pre-certification behaviour (every application re-simulated).

    [journal] (default none — zero-overhead) opens a durable write-ahead
    journal at the given path ({!Milo_journal.Journal}): the run header,
    every stage entry, every committed change-log delta (appended and
    flushed as it lands) and a full design snapshot at every stage
    checkpoint (committed with the tmp+fsync+rename discipline), closed
    by a Finish record.  A run killed at any byte leaves a journal whose
    longest valid prefix {!resume} can re-enter and {!replay} can
    re-execute.

    [journal_fault] is the crash-injection hook for the fault harness:
    called with the running record count after each journal record
    reaches the file; raising {!Milo_journal.Journal.Crash} from it
    simulates a kill at exactly that point (the journal file is left
    as-is and the exception propagates — no [Partial] degradation, no
    Finish record).  Whatever exception leaves the run, at any record,
    the journal writer is closed and the domain pool shut first.

    [provenance] (default none — zero-overhead) hands the given
    recorder every record the journal would receive
    ({!Milo_provenance.Provenance.observe}), journaled or not, and the
    recorder keeps them in memory.  Every committed change-log batch
    on the tracked design is a [Delta] record carrying the committer's
    exact cost attribution; the ledger, the conservation check and the
    object tags behind critical-path blame are folds over those
    records.  Its records therefore write the same trajectory as
    {!Milo_provenance.Trajectory.of_journal}'s over the run's
    journal.

    [domains] (default 1) runs the optimizer's fan-out sites
    (timing-strategy dispatch, per-rule candidate evaluation) as
    supervised tasks — inline at 1, over a pool of [domains] worker
    domains ({!Milo_parallel.Pool}) above.  The
    microarchitecture critic's pass always runs inline: measuring its
    candidates registers compiled sub-designs into the run's shared
    database.  Tasks evaluate on immutable
    id-preserving design snapshots; a task that raises, overruns the
    budget deadline or stops heartbeating is quarantined as a typed
    fault without poisoning the run, and results merge in a
    deterministic submission order — so [~domains:1] and [~domains:n]
    produce bit-identical designs, ledgers and journals, and the same
    spans, rule attribution counts and counters.  When the pool cannot
    be constructed (single-core host without [force_domains], domain
    spawn failure) the run degrades gracefully to inline supervised
    execution — same results, no speedup — and records
    ["Degraded_to_sequential"] in [result.notes].  [force_domains]
    lifts the two-core floor so tests can exercise real multi-domain
    supervision anywhere.

    Any other stage failure yields [Partial]: the last good checkpoint,
    the failing stage and a structured error.  [Out_of_memory] and
    [Stack_overflow] are always re-raised. *)

val run_exn :
  ?technology:technology ->
  ?constraints:Constraints.t ->
  ?lint:Milo_lint.Lint.level ->
  ?budget:Milo_rules.Budget.t ->
  ?hooks:hooks ->
  ?trace:Milo_trace.Trace.t ->
  ?guard:Milo_guard.Guard.policy ->
  ?certify:bool ->
  ?journal:string ->
  ?provenance:Milo_provenance.Provenance.t ->
  ?domains:int ->
  ?force_domains:bool ->
  D.t ->
  result
(** Like {!run} but re-raises the original exception on a [Partial]
    outcome.  Compatibility entry point for callers that want the
    pre-checkpointing behaviour. *)

(** {2 Journal resume and replay} *)

exception Journal_error of string
(** {!Milo_journal.Journal.Journal_error}, re-exported. *)

val resume :
  ?hooks:hooks ->
  ?trace:Milo_trace.Trace.t ->
  ?provenance:Milo_provenance.Provenance.t ->
  ?force_domains:bool ->
  string ->
  outcome
(** [resume path] recovers the journal's longest valid prefix and
    continues the run from its last committed checkpoint: the budget is
    re-armed with the remaining allowance ({!Milo_rules.Budget.resume}),
    and the semantic guard's counters, sampling position, quarantine
    image and report fragments from that checkpoint's record.  Every
    stage runs the fresh run's code.  A committed stage adopts its
    snapshot id-exactly and is neither checked nor recorded again, so
    nothing is double-counted; compilation always re-runs, to fill the
    design database.

    The resumed run continues the journal: the records up to the last
    committed checkpoint are kept and the resumed stages append theirs.
    So a killed resume can be resumed again, and a finished one leaves
    the uninterrupted run's journal, wall-clock fields aside.  The
    result is the uninterrupted run's: same final design, same guard
    statistics, same report cost.  A [provenance] recorder observes the
    kept records first, so it sees the whole run; a [trace] times the
    resumed run only.

    A journal recorded with [~domains:n] re-enters with the same
    domain count (the header carries it); [force_domains] is forwarded
    to pool construction as in {!run}.  Degrading to inline execution
    on resume changes nothing observable.

    Raises {!Journal_error}, leaving the file untouched, when the
    journal has no header, no committed checkpoint (a run killed before
    its first commit has nothing to resume — re-run the flow from the
    input design) or lacks a committed stage's snapshot. *)

type divergence = {
  div_record : int;  (** record index in the journal *)
  div_stage : string;
  div_label : string option;  (** rule/strategy of the diverging delta *)
  div_kind : string;
      (** ["redo"] (the recorded delta no longer applies), ["state"]
          (post-delta design hash mismatch), ["guard"] (the re-executed
          application changed function under the full guard),
          ["checkpoint"] (replayed design differs from the committed
          snapshot) or ["final"] (recomputed cost differs from the
          Finish record) *)
  div_detail : string;
}

type replay_report = {
  rep_path : string;
  rep_records : int;
  rep_truncated_bytes : int;
  rep_deltas : int;  (** recorded rule applications re-executed *)
  rep_checks : int;  (** full-guard equivalence checks performed *)
  rep_finished : bool;  (** the journal ends with a Finish record *)
  rep_divergences : divergence list;
}

val replay : string -> replay_report
(** [replay path] deterministically re-executes the journal's recorded
    trajectory: snapshots are adopted at the design-producing stages
    (capture, compile, techmap), every recorded change-log delta of the
    in-place stages (micro, optimize) is re-applied with
    [Design.redo], and every re-application is equivalence-checked
    with the semantic guard in [Full] mode — certificates and sampling
    ignored.  Checkpoint snapshots and the Finish record's cost are
    cross-checked along the way.  A clean journal of a sound run
    replays with zero divergences; a quarantined miscompile shows up as
    the exact record where function changed.

    Raises {!Journal_error} when no header survived recovery. *)

val human_baseline :
  ?technology:technology -> D.t -> D.t * Milo_compilers.Database.t
(** Direct compile + conservative map, no optimization. *)

val baseline_stats :
  ?technology:technology ->
  ?input_arrivals:(string * float) list ->
  D.t ->
  stats

(** Optimization provenance: object lineage tags, exact per-rule cost
    attribution and a trajectory event stream, all folded from the
    run's journal records.

    {!observe} is the only way a recorder learns anything.  The flow
    hands it each record as it hands the same record to the journal
    writer, and {!Trajectory.of_journal} runs the same fold over
    recovered records, so a live recording and an offline one of the
    same journal are equal by construction.

    {2 The three ledgers}

    {b Object provenance.}  Every component and net carries a compact
    {!tag} — the stage, rule label and step ordinal of the commit that
    last touched it.  Tags are folded from {e committed} change-log
    entries only, so a rolled-back application leaves no fingerprints.
    Tags restart at every stage record: a stage may switch the tracked
    design to a different id space (micro netlist vs. flattened mapped
    design).

    {b Cost attribution.}  Steps that fall inside a measured window
    carry the measurer's exact before/after totals.  Because each kept
    application advances the same incremental measurer whose totals
    are snapshotted here, attribution {e conserves}: within a stage
    the records telescope ([after]{_ k} is bitwise [before]{_ k+1})
    and the attributed deltas sum to the stage's end-to-end cost
    change ({!conservation}).  Rollbacks and quarantines revert the
    design before any commit, so they never reach the stream.

    {b Trajectory.}  One event per record — [Run]/[Header],
    [Stage]/[Stage], [Step]/[Delta], [Check]/[Checkpoint],
    [Finish]/[Finish]. *)

module D = Milo_netlist.Design

type cost = Milo_trace.Trace.cost

type tag = {
  tag_stage : string;  (** flow stage of the commit *)
  tag_label : string option;  (** rule/strategy label, when attributed *)
  tag_step : int;  (** step ordinal of the commit ({!step}[.st_step]) *)
}

type step = {
  st_step : int;  (** ordinal of the delta among the stream's deltas *)
  st_stage : string;
  st_label : string option;  (** the delta's label *)
  st_site : string option;  (** site digest, engine commits only *)
  st_verdict : D.verdict option;
  st_entries : int;  (** change-log entries in the commit *)
  st_hash : string;  (** design digest after the commit *)
  st_before : cost option;  (** measurer totals around the commit; *)
  st_after : cost option;  (** [None] outside a measured window *)
  st_comps : int;  (** design features after the commit; 0 when the *)
  st_nets : int;  (** delta predates recorded shapes *)
  st_budget : (int * int * float) option;  (** steps, evals, elapsed *)
}

type event =
  | Run of { run_design : string; run_tech : string; run_hash : string }
  | Stage of string
  | Step of step
  | Check of { ck_stage : string; ck_hash : string; ck_comps : int; ck_nets : int }
  | Finish of { fin_outcome : string; fin_cost : cost }

(** {1 Recorder} *)

type t

val create : unit -> t

val observe : t -> Milo_journal.Journal.record -> unit
(** Fold one journal record into the recorder: a header becomes
    [Run], a stage resets the object tags, a delta is numbered, tags
    the objects its entries touch and becomes a [Step], a checkpoint
    becomes a [Check] carrying its snapshot's digest, and a finish
    closes the stream. *)

val add_sink : t -> (event -> unit) -> unit
(** Streaming sink, called once per recorded event in order. *)

(** {1 Queries} *)

val events : t -> event list
(** All recorded events, in order. *)

val comp_tag : t -> int -> tag option
val net_tag : t -> int -> tag option
val tag_count : t -> int * int
(** Live (component, net) tag counts. *)

(** {1 Attribution ledger} *)

type row = {
  row_stage : string;
  row_label : string;  (** ["(unlabeled)"] for anonymous commits *)
  row_applies : int;  (** commits attributed to this row *)
  row_measured : int;  (** of which carried measurer totals *)
  row_delay : float;  (** summed after−before deltas (negative = gain) *)
  row_area : float;
  row_power : float;
}

val ledger : t -> row list
(** One row per (stage, label), in order of first appearance. *)

type conservation = {
  co_stage : string;
  co_commits : int;
  co_measured : int;
  co_breaks : int;
      (** telescoping violations: measured step k's [after] was not
          bitwise-equal to measured step k+1's [before].  0 on any
          healthy run — the invariant the fuzz suite asserts. *)
  co_sum : cost;  (** sum of attributed deltas *)
  co_end : cost;  (** last [after] − first [before] *)
  co_residual : cost;  (** [co_sum − co_end]; ~0 up to float re-association *)
}

val conservation : t -> conservation list
(** Per-stage conservation check over the recorded steps, in stage
    order of first appearance.  Stages with no measured steps report
    zero sums and trivially conserve. *)

(** {1 Critical-path blame} *)

val blame :
  t -> Milo_timing.Sta.path -> (Milo_timing.Sta.hop * tag option) list
(** Map each hop of a timing path to the tag of the commit that last
    touched its component; [None] means no recorded commit touched it
    (it survives unchanged from technology mapping). *)

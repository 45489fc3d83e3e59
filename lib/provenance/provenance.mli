(** Optimization provenance: the run's journal records held in memory,
    and the answers folded from them — object lineage tags and exact
    per-rule cost attribution.

    {!observe} is the only way a recorder learns anything.  The flow
    hands it each record as it hands the same record to the journal
    writer, and {!Trajectory.of_journal} hands it the records recovered
    from a journal file, so a live recording and an offline one of the
    same journal hold the same records.  Every query below is a fold
    over them; nothing is kept on the side.

    Step ordinals number a stream's [Delta] records from 0, across
    stages.

    {2 The two ledgers}

    {b Object provenance.}  Every component and net carries a compact
    {!tag} — the stage, rule label and step ordinal of the commit that
    last touched it.  Tags are folded from {e committed} change-log
    entries only, so a rolled-back application leaves no fingerprints.
    Tags restart at every stage record: a stage may switch the tracked
    design to a different id space (micro netlist vs. flattened mapped
    design).

    {b Cost attribution.}  Deltas that fall inside a measured window
    carry the measurer's exact before/after totals.  Because each kept
    application advances the same incremental measurer whose totals
    are snapshotted here, attribution {e conserves}: within a stage
    the records telescope ([after]{_ k} is bitwise [before]{_ k+1})
    and the attributed deltas sum to the stage's end-to-end cost
    change ({!conservation}).  Rollbacks and quarantines revert the
    design before any commit, so they never reach the stream. *)

type cost = Milo_trace.Trace.cost

type tag = {
  tag_stage : string;  (** flow stage of the commit *)
  tag_label : string option;  (** rule/strategy label, when attributed *)
  tag_step : int;  (** step ordinal of the commit *)
}

(** {1 Recorder} *)

type t

val create : unit -> t

val observe : t -> Milo_journal.Journal.record -> unit
(** Append one record and hand it to every sink. *)

val add_sink : t -> (Milo_journal.Journal.record -> unit) -> unit
(** Streaming sink, called once per observed record in order. *)

val events : t -> Milo_journal.Journal.record list
(** All observed records, in order. *)

(** {1 Object tags} *)

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
      (** telescoping violations: measured delta k's [after] was not
          bitwise-equal to measured delta k+1's [before].  0 on any
          healthy run — the invariant the fuzz suite asserts. *)
  co_sum : cost;  (** sum of attributed deltas *)
  co_end : cost;  (** last [after] − first [before] *)
  co_residual : cost;  (** [co_sum − co_end]; ~0 up to float re-association *)
}

val conservation : t -> conservation list
(** Per-stage conservation check over the recorded deltas, in stage
    order of first appearance.  Stages with no measured deltas report
    zero sums and trivially conserve. *)

(** {1 Critical-path blame} *)

val blame :
  t -> Milo_timing.Sta.path -> (Milo_timing.Sta.hop * tag option) list
(** Map each hop of a timing path to the tag of the commit that last
    touched its component; [None] means no recorded commit touched it
    (it survives unchanged from technology mapping). *)

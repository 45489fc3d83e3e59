(** Trajectory serialization: one JSON object per journal record, one
    record per line (JSONL), keys sorted.

    Record types ([t] key): ["run"], ["stage"], ["step"],
    ["checkpoint"], ["finish"] — one per journal record.  A step's
    ["step"] ordinal is counted by the writer: the stream's deltas
    from 0.

    A trajectory can be captured two ways, which give the same lines:
    live, by installing {!sink} on the run's recorder; or offline, by
    {!of_journal} over the run's journal.  Both hold the whole run
    across kill/resume cycles: [Flow.resume] continues the journal
    after its last committed checkpoint, and a recorder passed to it
    observes the kept records before the resumed run's own.  Steps of a journal written before
    deltas carried attribution, budget and shape lines have no site,
    verdict, costs or budget, and zero feature counts. *)

val lines : Milo_journal.Journal.record list -> string list
(** One JSON object per record, no trailing newlines. *)

val sink : out_channel -> Milo_journal.Journal.record -> unit
(** [sink oc] is a streaming writer for {!Provenance.add_sink}: it
    writes each record as a line, flushing on [Finish] (the journal is
    the durable record; the trajectory file is regenerable from it).
    Each [sink oc] counts its own step ordinals, so feed one writer
    one stream. *)

val of_journal : string -> Provenance.t
(** Rebuild a recorder offline from the journal's recovered records.
    Raises {!Milo_journal.Journal.Journal_error} when no run header
    survived recovery. *)

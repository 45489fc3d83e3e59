(** Trajectory serialization: one JSON object per {!Provenance.event},
    one event per line (JSONL), keys sorted, floats printed so they
    round-trip bit-exactly through {!load}.

    Record types ([t] key): ["run"], ["stage"], ["step"],
    ["checkpoint"], ["finish"] — one per journal record.

    A trajectory can be captured two ways, which give the same events:
    live, by installing {!sink} on the run's recorder; or offline, by
    {!of_journal} over the run's journal — including a journal
    stitched across kill/resume cycles, since {!Flow.resume} rewrites
    one coherent record stream.  Both run {!Provenance.observe} over
    the same records.  Steps of a journal written before deltas
    carried attribution, budget and shape lines have no site, verdict,
    costs or budget, and zero feature counts. *)

val line_of_event : Provenance.event -> string
(** One JSON object, no trailing newline. *)

val sink : out_channel -> Provenance.event -> unit
(** Streaming sink for {!Provenance.add_sink}: writes each event as a
    line, flushing on [Finish] (the journal is the durable record; the
    trajectory file is regenerable from it). *)

val save : string -> Provenance.event list -> unit
(** Write a complete trajectory file. *)

val load : string -> Provenance.event list
(** Parse a trajectory file.  Raises [Failure] (with a line number) on
    malformed input. *)

val of_journal : string -> Provenance.t
(** Rebuild a recorder offline: {!Provenance.observe} over the
    journal's recovered records.  Raises
    {!Milo_journal.Journal.Journal_error} when no run header survived
    recovery. *)

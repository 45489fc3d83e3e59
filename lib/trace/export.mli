(** Trace serialization: a streaming JSONL sink and a Chrome
    [trace_event] exporter loadable in Perfetto
    ({:https://ui.perfetto.dev}) or [chrome://tracing].

    All JSON is emitted by hand — the telemetry core stays
    zero-dependency. *)

val json_escape : string -> string
(** Escape for inclusion between double quotes in JSON. *)

val quote : string -> string
(** [s] escaped and between double quotes: a JSON string literal. *)

val jsonl_sink : out_channel -> Trace.sink
(** A streaming sink: one JSON object per line — [{"t":"span",...}]
    as each span closes, and on each flush one
    [{"t":"counter"|"gauge"|"hist",...}] line per metric followed by a
    channel flush.  Because span lines stream as spans close, a run
    that dies mid-flight still leaves a well-formed prefix. *)

val chrome_to_string : Trace.t -> string
(** The whole trace as one Chrome [trace_event] JSON document:
    spans become ["X"] complete events (timestamps/durations in
    microseconds), counters become a trailing ["C"] sample. *)

val write_chrome : out_channel -> Trace.t -> unit

val save_chrome : string -> Trace.t -> unit
(** Atomically write the Chrome [trace_event] document to a file:
    written to [path.tmp], flushed, fsynced and renamed over [path], so
    a crash mid-export leaves either the previous complete file or the
    new one — never a torn export.  For crash-survivable streaming
    instead, attach {!jsonl_sink}. *)

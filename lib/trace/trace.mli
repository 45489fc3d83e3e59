(** Flow telemetry: hierarchical spans, a metrics registry and per-rule
    time attribution, with pluggable sinks.  The tracer answers "where
    did the time go?"; what the run decided is the journal record
    stream's to say.

    The tracer is ambient, like [Measure.set_debug_check]: the flow
    installs a tracer with {!with_tracer} and instrumented code
    reports through the module-level helpers, which are no-ops when no
    tracer is installed.  Hot paths guard payload construction behind
    {!enabled} so the disabled default costs one ref read per probe.

    Timestamps come from a per-tracer clock that is clamped to be
    monotone non-decreasing, in seconds since {!create}. *)

type cost = { delay : float; area : float; power : float }
(** A design cost snapshot, as reported by the measurement layer. *)

(** {1 Spans} *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  mutable stop : float;  (** negative while the span is open *)
}

val span_closed : span -> bool
val span_dur : span -> float
(** Duration in seconds; 0 for a span that never closed. *)

(** {1 Per-rule attribution} *)

type rule_stat = {
  mutable applies : int;
  mutable refusals : int;
  mutable rollbacks : int;
  mutable evals : int;
  mutable time_s : float;  (** total wall time spent evaluating/applying *)
  mutable gain : float;  (** total cost improvement from kept applies *)
}

(** {1 Sinks} *)

type t

type sink = {
  sink_span : span -> unit;  (** called when a span closes *)
  sink_flush : t -> unit;  (** called by every {!flush} *)
}

(** {1 Tracer lifecycle} *)

val create : unit -> t
val add_sink : t -> sink -> unit

val flush : t -> unit
(** Force-close any spans still open (a faulted run unwinds through
    here), derive end-of-run gauges, then run every sink's flush.  Not
    idempotent: each call runs every sink's flush again, so a metric
    dumping sink writes its lines once per call. *)

(** {1 The ambient tracer} *)

val enabled : unit -> bool
(** True when a tracer is installed.  Guard payload allocation on hot
    paths with this. *)

val with_tracer : t -> (unit -> 'a) -> 'a
(** Install [t] for the duration of the callback (restoring the
    previous tracer even on exceptions).  Does not flush.

    The ambient slot is domain-local: a tracer installed on the
    coordinating domain is invisible to worker domains, so parallel
    scratch evaluations are untraced by construction. *)

val without : (unit -> 'a) -> 'a
(** Run the callback with tracing suppressed on this domain (restoring
    the previous tracer even on exceptions).  Used by the parallel
    runtime's inline execution mode so a worker task observes the same
    (absent) tracer whether it runs on the coordinator or on a pool
    domain. *)

(** {1 Recording (all no-ops without an installed tracer)} *)

val with_span : string -> (unit -> 'a) -> 'a
(** Run the callback inside a fresh child span of the innermost open
    span.  The span closes when the callback returns or raises. *)

val open_span : string -> unit
(** Open a span without scoping it to a callback — for stages whose
    end is a later program point.  Pair with {!close_span}. *)

val close_span : string -> unit
(** Close the innermost open span with the given name, force-closing
    any descendants still open below it.  No-op if no such span. *)

val count : string -> int -> unit
val set_gauge : string -> float -> unit
val sample : string -> float -> unit

val note_rule :
  rule:string ->
  dt:float ->
  gain:float ->
  outcome:[ `Eval | `Applied | `Refused | `Rolled_back ] ->
  unit
(** Update the per-rule attribution table: [`Eval] charges time only;
    [`Applied] also books [gain]; the others bump their counters. *)

(** {1 Queries} *)

val now : t -> float

val spans : t -> span list
(** All spans, in creation (start) order. *)

val rule_stats : t -> (string * rule_stat) list
(** Sorted by descending total time. *)

val metrics : t -> Metrics.t

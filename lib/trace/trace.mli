(** Flow telemetry: hierarchical spans, a typed event log, and a
    metrics registry, with pluggable sinks.

    The tracer is ambient, like [Measure.set_debug_check]: the flow
    installs a tracer with {!with_tracer} and instrumented code
    reports through the module-level helpers, which are no-ops when no
    tracer is installed.  Hot paths guard payload construction behind
    {!enabled} so the disabled default costs one ref read per probe.

    Timestamps come from a per-tracer clock that is clamped to be
    monotone non-decreasing, in seconds since {!create}. *)

(** {1 Attribute values and costs} *)

type value = Int of int | Float of float | Str of string | Bool of bool

type cost = { delay : float; area : float; power : float }
(** A design cost snapshot, as reported by the measurement layer. *)

(** {1 Spans} *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  mutable stop : float;  (** negative while the span is open *)
  mutable attrs : (string * value) list;
}

val span_closed : span -> bool
val span_dur : span -> float
(** Duration in seconds; 0 for a span that never closed. *)

(** {1 Events} *)

type event_kind =
  | Rule_applied of { rule : string; site : string; gain : float }
  | Rule_refused of { rule : string; site : string; reason : string }
  | Rule_rolled_back of { rule : string; site : string }
  | Rule_quarantined of { rule : string; failures : int; message : string }
  | Rule_miscompiled of { rule : string; site : string; detail : string }
      (** a semantic-guard cone check caught a miscompile; the
          application was reverted and the rule quarantined *)
  | Search_decision of { rule : string; site : string; depth : int; gain : float }
  | Strategy_step of {
      strategy : string;
      detail : string;
      kept : bool;
      delay_before : float;
      delay_after : float;
    }
  | Budget_exhausted of { steps : int; evals : int; elapsed : float }
  | Checkpoint of { stage : string; comps : int; nets : int }
  | Measure_advance of { cone_nets : int; cone_comps : int }
  | Measure_retreat
  | Measure_resync of { reason : string }
  | Note of string

type event = {
  seq : int;  (** global step index, monotonically increasing *)
  at : float;
  stage : string;  (** flow stage current when the event fired *)
  in_span : int option;  (** innermost open span *)
  before : cost option;
  after : cost option;
  kind : event_kind;
}

val kind_label : event_kind -> string
(** Short stable label ("rule-applied", "checkpoint", ...). *)

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
  sink_event : event -> unit;
  sink_flush : t -> unit;  (** called once by {!flush} *)
}

(** {1 Tracer lifecycle} *)

val create : ?ring_size:int -> unit -> t
(** A fresh tracer.  [ring_size] bounds the in-memory event ring
    (default 65536); older events are overwritten but still reach
    streaming sinks and the metrics registry. *)

val add_sink : t -> sink -> unit

val flush : t -> unit
(** Force-close any spans still open (a faulted run unwinds through
    here), derive end-of-run gauges, then run every sink's flush.
    Idempotent per sink list. *)

(** {1 The ambient tracer} *)

val set_current : t option -> unit
val current : unit -> t option

val enabled : unit -> bool
(** True when a tracer is installed.  Guard event-payload allocation
    on hot paths with this. *)

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

val with_span : ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** Run the callback inside a fresh child span of the innermost open
    span.  The span closes when the callback returns or raises. *)

val open_span : ?attrs:(string * value) list -> string -> unit
(** Open a span without scoping it to a callback — for stages whose
    end is a later program point.  Pair with {!close_span}. *)

val close_span : string -> unit
(** Close the innermost open span with the given name, force-closing
    any descendants still open below it.  No-op if no such span. *)

val attr : string -> value -> unit
(** Attach an attribute to the innermost open span. *)

val emit : ?before:cost -> ?after:cost -> event_kind -> unit

val set_stage : string -> unit
(** Set the stage recorded on subsequent events. *)

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
val events : t -> event list
(** Events surviving in the ring, oldest first. *)

val event_count : t -> int
(** Total events ever emitted (>= [List.length (events t)]). *)

val restore_seq : t -> int -> unit
(** Re-arm the event sequence counter at a recorded position (journal
    resume): subsequent events are numbered from [n], so a resumed
    run's events continue the numbering of the interrupted run.  Never
    moves the counter backwards. *)

val spans : t -> span list
(** All spans, in creation (start) order. *)

val rule_stats : t -> (string * rule_stat) list
(** Sorted by descending total time. *)

val metrics : t -> Metrics.t

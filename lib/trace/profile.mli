(** Post-run analysis of a trace: the span tree with self-times, and
    the "hot rules / hot stages" attributions used by [Report.summary]
    and the [milo profile] subcommand.

    Self-time is a span's duration minus the duration of its direct
    children — the time the code at that level spent itself. *)

type node = {
  span : Trace.span;
  children : node list;  (** in start order *)
  total : float;  (** span duration, seconds *)
  self : float;  (** total minus children's totals, clamped at 0 *)
}

val tree : Trace.t -> node list
(** Root spans (in start order) with their subtrees. *)

val hot_stages : Trace.t -> (string * float) list
(** Aggregate self-time by span name, descending — stages, optimizer
    phases and per-level spans all attribute here. *)

val hot_rules_by_time : Trace.t -> (string * Trace.rule_stat) list
(** Rules by descending total attributed wall time. *)

val hot_rules_by_gain_rate : Trace.t -> (string * Trace.rule_stat) list
(** Rules with at least one kept application, by descending cost
    improvement per millisecond of attributed time. *)

val render : Trace.t -> string
(** The [milo profile] report: the span tree with total/self times,
    then per-rule attribution (applies, refusals, time, gain,
    gain/ms), then histogram and gauge headlines. *)

val hot_summary : ?top:int -> Trace.t -> string
(** The compact "hot stages / hot rules" section appended to
    [Report.summary] ([top] defaults to 5 each).  Empty string when
    the trace recorded nothing. *)

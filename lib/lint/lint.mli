(** Lint driver: run the DRC passes over a design, build reports, and
    enforce stage invariants in the flow. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

(** Strictness of a stage invariant: [Off] skips linting entirely,
    [Warn] reports errors/warnings on stderr and continues, [Strict]
    raises {!Lint_error} on any Error-severity finding. *)
type level = Off | Warn | Strict

val level_name : level -> string
val level_of_string : string -> level option

val structural_rules : string list
(** The invariant subset a rewrite engine must preserve after every rule
    application (connectivity consistency, single drivers, valid
    references, no combinational loops). *)

val compat_rules : string list
(** The subset the structural validator {!check} enforces. *)

val run :
  ?resolve:D.resolver ->
  ?is_sequential:(T.kind -> bool) ->
  ?rules:string list ->
  D.t ->
  Diagnostic.t list
(** Run the selected passes (default: all) and return the findings
    sorted most severe first.  [resolve] supplies Macro/Instance pin
    interfaces; [is_sequential] classifies kinds the netlist layer
    cannot (mapped flip-flop macros), defaulting to
    [Types.is_sequential_kind].
    @raise Invalid_argument on an unknown rule name. *)

val severity_count : Diagnostic.severity -> Diagnostic.t list -> int
val errors : Diagnostic.t list -> Diagnostic.t list

type report = {
  design_name : string;
  stage : string option;
  diags : Diagnostic.t list;
}

val report_summary : report -> string
val report_to_string : report -> string
val report_to_json : report -> string

exception Lint_error of report

val check_stage :
  ?resolve:D.resolver ->
  ?is_sequential:(T.kind -> bool) ->
  level:level ->
  stage:string ->
  D.t ->
  Diagnostic.t list
(** Lint one flow stage at the given strictness; see {!level}. *)

val check : ?resolve:D.resolver -> D.t -> (unit, string list) result
(** Structural validation: all input pins connected, a single driver
    per net, connectivity indexes consistent — the {!compat_rules}
    findings as strings. *)

(** Abstract interpretation over the mapped netlist IR.

    A worklist fixpoint over the ternary domain [{0, 1, ⊤}] computes
    per-net constant facts, plus three structural/semantic summaries
    derived from them: liveness (backward reachability from output
    ports), observability (backward don't-care analysis: can a net's
    value ever influence an observable output?) and stuck-at inputs.

    Soundness contract: every fact is an over-approximation of the
    behaviours [Milo_sim.Simulator] can exhibit.  A net reported
    constant by {!net_const} settles to that value under {e every}
    input assignment (sequential state held at its reset value of
    zero, matching the simulator); a net reported unobservable cannot
    change any output port by toggling.  Undriven nets read as [false]
    in the simulator, so they are constant [Zero] here, and nets with
    multiple drivers are poisoned to [Top] forever.

    The analysis is incremental in the same shape as
    [Milo_measure.Measure]: feed the change-log entries of committed
    edits to {!advance}, and the next query re-derives only the facts
    the edits can have changed (see {!advance}). *)

module D = Milo_netlist.Design

(** Abstract value of a net: constant low, constant high, or unknown. *)
type value = Zero | One | Top

val value_name : value -> string

type env = string -> Milo_library.Macro.t option
(** Macro lookup for [Macro] component kinds. *)

val env_of_techs : Milo_library.Technology.t list -> env
(** First match wins, as in [Milo_sim.Simulator.env_of_techs]. *)

type t

type memo
(** The answers of the two lifted kernels: the constant outputs of a
    component under some input facts, and whether toggling one of its
    inputs can change some observed outputs.  Each is a pure function
    of its key: the component's semantics (a macro's [Macro.t] by
    physical identity, so one memo never confuses two libraries'
    macros of one name; any other kind by [Hashcons.kind_id]), the
    abstract values of its inputs in pin order, and for the second the
    toggled pin and the observed outputs.  An evaluator exception is
    answered conservatively (every output ⊤; the pin propagates), and
    that answer is kept too.  Each table holds a bounded number of
    answers and starts over when full.  Not synchronised: a memo
    belongs to one domain. *)

val analyze : ?memo:memo -> ?resolve:D.resolver -> env -> D.t -> t
(** Run the full fixpoint.  [resolve] defaults to a resolver built from
    [env] (sufficient for mapped designs without [Instance]s).  The
    analysis answers its kernel queries from [memo], and adds to it,
    for as long as it lives; by default it starts an empty one.  A memo
    carried from analysis to analysis changes no fact, only what they
    cost. *)

val memo : t -> memo
(** The memo the analysis reads and fills, to carry to the next one. *)

val design : t -> D.t

(** {2 Incremental invalidation} *)

val advance : t -> D.entry list -> unit
(** Note committed design edits (the entries of a [D.log], in
    application order).  Facts are refreshed lazily at the next query,
    in time proportional to what the edits changed, and equal to a
    fresh {!analyze} of the edited design:
    - constants are reset from the touched nets (the edited nets and
      every net of an edited component) forward through the nets whose
      value was a derived fact, and re-derived from there;
    - liveness and observability re-decide only the touched facts and
      the facts that depend on them, or on a net whose value moved.
      This needs an acyclic component graph (a topological index is
      built at the first such refresh and kept up to date); while the
      graph has a cycle, for instance sequential feedback, both run as
      full passes ({!stats}[.fallback_runs]). *)

val invalidate : t -> unit
(** Force the next query to re-run the full fixpoint. *)

(** {2 Fact queries}

    All queries refresh pending invalidations first. *)

val net_value : t -> int -> value
val net_const : t -> int -> bool option
(** [Some v] iff the net is proved constant [v]. *)

val net_observable : t -> int -> bool
(** Can this net's value influence an output port?  [false] is a
    proof of unobservability; [true] is conservative. *)

val comp_live : t -> int -> bool
(** Does some output of this component structurally reach an output
    port? *)

val comp_observable : t -> int -> bool
(** Is some output net of this component observable? *)

val const_nets : t -> (int * bool) list
(** All nets proved constant, with their values. *)

val dead_comps : t -> int list
(** Components no output port structurally depends on. *)

val unobservable_comps : t -> int list
(** Live components whose every output is masked (proved unobservable)
    — removable don't-care logic. *)

val stuck_pins : t -> (int * string * bool) list
(** Input pins fed by a proved-constant net: (comp, pin, value). *)

val floating_inputs : t -> (int * string) list
(** Unconnected input pins of live components. *)

val multi_driven : t -> int list
(** Nets with more than one driver (poisoned to [Top]). *)

(** {2 Summary} *)

type stats = {
  mutable full_runs : int;  (** full fixpoints: {!analyze}, {!invalidate} *)
  mutable incremental_runs : int;  (** refreshes after an {!advance} *)
  mutable fallback_runs : int;
      (** of those, the ones whose liveness and observability ran as full
          passes because the component graph had a cycle *)
  mutable transfers : int;
      (** evaluations of a component's concrete function made by the
          lifted kernels; a query the memo answers makes none *)
}

val stats : t -> stats

type summary = {
  sum_comps : int;
  sum_nets : int;
  sum_const0 : int;
  sum_const1 : int;
  sum_stuck_pins : int;
  sum_dead_comps : int;
  sum_unobservable_comps : int;
  sum_floating_inputs : int;
  sum_multi_driven : int;
  sum_transfers : int;
}

val summary : t -> summary
val summary_to_json : string -> summary -> string
(** Flat JSON object; the string is the (escaped) design name. *)

val pp_summary : Format.formatter -> summary -> unit

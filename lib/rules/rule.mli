(** First-class rewrite rules over netlists: an antecedent ([find]) and
    a consequent ([apply]) that records an undoable changelog, grouped
    into the expert classes of Figure 17. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type rule_class = Logic | Timing | Area | Power | Electric | Cleanup | Micro

val class_name : rule_class -> string

(** {2 Engine session}

    The engine's per-run state, carried by every context of a run.
    [Engine] owns the logic over it; two sessions share nothing, so
    two runs in one process never share a quarantine. *)

type reason =
  | Raised  (** the rule's [apply] or [find] raised (or failed debug-lint) *)
  | Miscompiled
      (** the semantic guard caught the rule changing its site's
          function; the application was reverted *)

type rule_guard = {
  rg_policy : Milo_guard.Guard.policy;
  rg_budget : Budget.t option;
  rg_stats : Milo_guard.Guard.stats;
  rg_seen : (string, unit) Hashtbl.t;  (** rules checked at least once *)
  mutable rg_tick : int;  (** check opportunities, for sampling *)
  rg_tv : (string, int array) Hashtbl.t;
      (** truth vectors of structurally identical cones, by digest *)
}

type analysis = ..
(** A whole-design analysis that rule [find]s share (the absint rules
    add theirs).  Defined here because this library cannot name the
    analyses, which depend on it. *)

type analysis_slot
(** An analysis with the state it describes and its advance function. *)

type session = {
  quarantine : (string, int * string * reason) Hashtbl.t;
      (** per rule: failure count, first failure message and why *)
  trapped : (string * string * reason) list ref option;
      (** [Some] in a worker fork: failures trapped by the task, newest
          first, handed back to the coordinator instead of written to
          the (then read-only) [quarantine] *)
  mutable rule_guard : rule_guard option;  (** armed semantic rule guard *)
  mutable certified : string list;  (** rules whose guard check is proved *)
  mutable last_verdict : Milo_netlist.Design.verdict;
      (** guard verdict of the latest guarded apply *)
  mutable debug_lint : bool;
  mutable analysis : analysis_slot option;
      (** the latest shared analysis (see {!val-analysis}); a worker
          fork starts without one *)
}

val new_session : unit -> session
(** Empty quarantine, no guard, no certificates, debug-lint off, no
    analysis. *)

type context = {
  design : D.t;
  tech : Milo_library.Technology.t;
  set : Milo_compilers.Gate_comp.gate_set;
  resolve : D.resolver;
  focus : (int, unit) Hashtbl.t option ref;
      (** when set, rule matching only examines these components (the
          Rete-style incremental discipline of Section 2.2.1, and
          [Engine]'s focused cleanups) *)
  measurer : Milo_measure.Measure.t option ref;
      (** when set (see [Engine]), the measured disciplines keep this
          incremental measurer in lock-step with the design and
          measurer-aware cost functions read it in O(1) *)
  session : session;
}

val make_context :
  ?session:session ->
  ?extra_resolve:D.resolver ->
  Milo_library.Technology.t ->
  Milo_compilers.Gate_comp.gate_set ->
  D.t ->
  context
(** [session] defaults to a fresh {!new_session}. *)

val fork_context : context -> context
(** An oracle-worker fork: id-preserving copy of the design (sites
    found on the original resolve identically on the fork), shared
    immutable technology/set/resolver, a fresh focus slot, a fork of
    the parent's measurer ([Measure.fork] onto the copy) when the
    parent has one, and a session that reads the parent's quarantine,
    collects its own failures in [trapped], never guards and starts
    without a shared analysis.  A measured fork therefore scores by
    delta, as the parent does.  Forking only reads the parent, and
    nothing done through the fork is visible through the original. *)

val scan_comps : context -> D.comp list
(** Components eligible for matching, in id order: every component, or
    the live members of the focus set.  A [find] built on it therefore
    lists the sites of a focus in the order a full scan would.

    {b Cleanup locality contract.}  A [Cleanup]-class rule's [find]
    anchors each site at one scanned component (recorded as the
    site's [anchor]), and whether that component matches, and with
    which sites, may depend only on its radius-1 neighbourhood: its own
    kind and connections, and for each net it touches the net's port
    binding, its pins and the kinds of the components on it.  So after
    some edits only an anchor in their [Engine.extent] — the components
    whose radius-1 view they changed — can match differently.  The
    engine relies on this to re-match cleanups only on a candidate's
    extent once the design is cleanup-quiet, and a rule declared
    [local] keeps it too (see {!t}). *)

val find_macro : context -> string -> Milo_library.Macro.t option
val macro_of : context -> D.comp -> Milo_library.Macro.t option

val analysis : context -> analysis option
(** The session's shared analysis, if it was computed on the context's
    current state: same physical design and {!D.generation}, same
    technology and resolver.  Every design mutator (undo included)
    bumps the generation, so a returned analysis is never stale. *)

val latest_analysis : session -> Milo_library.Technology.t -> analysis option
(** The session's latest analysis, whatever state it describes, when it
    was computed under [tech] (the same value, physically): what is
    known about the library that an analysis of another state may
    carry over (the absint rules carry their kernel memo). *)

val set_analysis :
  context -> analysis -> advance:(D.entry list -> unit) -> unit
(** Keep an analysis of the context's current state in its session,
    replacing the previous one.  [advance entries] must bring the
    analysis up to date with committed edits (the entries of a
    [D.log], in application order); see {!advance_analysis}. *)

val advance_analysis : context -> generation:int -> D.entry list -> unit
(** [advance_analysis ctx ~generation entries]: if the session's
    analysis describes [ctx]'s design at [generation], feed it the
    [entries] that took the design from there to its current state and
    key it on the current generation.  Any other analysis is left
    alone, so the next {!analysis} reports it out of date. *)

type site = {
  site_comps : int list;
  site_data : int list;
  descr : string;
  anchor : int;
      (** The scanned component ({!scan_comps}) the [find] matched the
          site at.  A full scan lists a rule's sites in anchor order, so
          a [local] rule's site list can be re-found around an edit and
          spliced back by anchor ([Engine.greedy_step]). *)
}

val site : ?anchor:int -> ?data:int list -> comps:int list -> string -> site
(** [anchor] defaults to the first of [comps] ([-1] when there is
    none). *)

type t = {
  rule_name : string;
  rule_class : rule_class;
  find : context -> site list;
  apply : context -> site -> D.log -> bool;
  local : bool;
      (** The rule keeps the {b locality contract}.  Its [find] anchors
          each site at one scanned component and reads only that
          component's radius-1 neighbourhood (the cleanup locality
          contract of {!scan_comps}).  Its [apply] reads only the site
          components' kinds and connections, their nets' pins and port
          bindings, and the kinds of the components on those nets.
          The greedy step then keeps the rule's site list across the
          steps of a pass, re-finding it only on each commit's extent,
          and a candidate's evaluation across commits that do not
          touch what it read ([Engine.greedy_step]); a rule that is
          not local is found and re-evaluated every step. *)
}

val make :
  ?local:bool ->
  name:string ->
  cls:rule_class ->
  find:(context -> site list) ->
  apply:(context -> site -> D.log -> bool) ->
  unit ->
  t
(** [local] defaults to [false]. *)

(** {2 Helpers for rule implementations} *)

val macro_comps :
  context -> (D.comp -> Milo_library.Macro.t -> bool) -> D.comp list

val retarget :
  name:string ->
  cls:rule_class ->
  verb:string ->
  (Milo_library.Technology.t -> string -> string option) ->
  t
(** [retarget ~name ~cls ~verb target]: a rule that re-kinds a macro
    component to the macro [target tech name] names, wherever the
    technology has that macro.  Sites are single components described
    as [verb ^ " " ^ component name]. *)

val driver_comp : context -> int -> (D.comp * string) option
(** The component driving a net and its output pin, whatever the
    component's kind (combinational, sequential, constant);
    [None] when an input port or nothing drives it.  [D.driver] under
    the context's resolver. *)

val fanout : context -> int -> int
(** [D.fanout] under the context's resolver. *)

val replace_macro :
  context -> D.log -> int -> string -> (string -> string option) -> unit
(** [replace_macro ctx log cid mname pin_map] swaps the component's kind
    and rewires each new pin from the old pin [pin_map] names. *)

val remove_comp_and_dangling : context -> D.log -> int -> unit
val merge_net_into : context -> D.log -> src:int -> dst:int -> unit
(** Move every pin from [src] to [dst]; caller must ensure [src] is not
    an externally visible port net (check {!net_is_port}). *)

val net_is_port : context -> int -> bool

(** Route [signal]'s value to the consumers of [old_net], coping with
    [signal] being an input-port net (merge direction flips) or both
    nets being port-bound (a buffer bridges them). *)
val reroute : context -> D.log -> signal:int -> old_net:int -> unit
val site_alive : context -> site -> bool

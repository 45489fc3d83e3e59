(** Mutable netlist with an undo log.

    The design is a graph of components (parameterized microarchitecture
    elements or library macros) and nets.  All mutators optionally record
    inverse information into a {!log}; {!undo} restores the design exactly
    — this is the change-log backtracking mechanism SOCRATES uses during
    lookahead (paper Section 2.2.2). *)

type resolver = Types.kind -> string -> (string * Types.dir) list
(** Resolves the pin interface of [Macro]/[Instance] references.  Every
    resolver a design is queried with must give a kind the same pin
    list; see {!pin_dir}. *)

type comp = {
  id : int;
  mutable cname : string;
  mutable kind : Types.kind;
      (** change it through {!set_kind}; a direct assignment must keep
          the direction of every pin (see {!pin_dir}) *)
  conns : (string, int) Hashtbl.t;  (** pin name -> net id *)
  mutable iface : iface;  (** memo of {!pin_dir}; private to this module *)
}

and iface

type net = {
  nid : int;
  mutable nname : string;
  mutable npins : (int * string) list;  (** attached (comp, pin) pairs *)
  mutable nport : (string * Types.dir) option;
      (** design port bound to this net, if any *)
  mutable drive : drive;
      (** memo of {!driver} and {!fanout}; private to this module *)
}

and drive

(** One edit, carrying both the inverse information needed to revert it
    ({!undo}) and the forward information needed to re-apply it
    ({!redo}) — the latter is what makes a committed change log a
    durable, replayable trajectory (the journal subsystem).  Public so
    incremental observers (the measurement layer) can fold a log into
    their own state; treat as read-only. *)
type entry =
  | E_add_comp of int * string * Types.kind  (** id, name, kind *)
  | E_remove_comp of int * string * Types.kind * (string * int) list
      (** id, name, kind, saved (pin, net) connections *)
  | E_connect of int * string * int option * int option
      (** comp, pin, previous net (if any), new net ([None] for a
          disconnect) *)
  | E_add_net of int * string  (** id, name *)
  | E_remove_net of int * string * (string * Types.dir) option
  | E_set_kind of int * Types.kind * Types.kind
      (** comp, previous kind, new kind *)

type log = entry list ref

type error = {
  err_op : string;  (** the mutator that failed, e.g. ["remove_net"] *)
  err_design : string;
  err_comp : string option;  (** offending component name, if known *)
  err_net : string option;  (** offending net name, if known *)
  err_pin : string option;
  err_reason : string;
}
(** Context of a failed edit: names the offending object so error
    reports (e.g. flow checkpoints) can point at it. *)

exception Error of error
(** Raised by mutators on invalid edits (removing a connected net,
    duplicate ports, unknown pins).  A printer is registered. *)

val error_to_string : error -> string

type t

val new_log : unit -> log
val create : string -> t
val name : t -> string

val generation : t -> int
(** Monotonic counter bumped on every structural mutation (including
    undo/redo and restore).  Derived data keyed on a design (digests,
    caches) is valid exactly while the generation is unchanged. *)

val comp : t -> int -> comp
val comp_opt : t -> int -> comp option
val net : t -> int -> net
val net_opt : t -> int -> net option
val ports : t -> (string * Types.dir * int) list
val comps : t -> comp list
(** Every component, in id order.  The list is memoised until the next
    mutation (keyed on {!generation}); a {!copy} lists afresh. *)

val nets : t -> net list
(** Every net, in id order; memoised like {!comps}. *)

val num_comps : t -> int
val num_nets : t -> int

val find_comp : t -> string -> comp
(** Find a component by name.  @raise Not_found if absent. *)

val new_net : ?log:log -> ?name:string -> t -> int
val add_port : ?net:int -> t -> string -> Types.dir -> int
(** Declare a design port; creates (or adopts) the net it is bound to.
    Ports are not undoable: they define the design's interface.
    @raise Error on a duplicate port or an already-bound net. *)

val port_net : t -> string -> int
(** Net bound to a port.  @raise Not_found if no such port. *)

val add_comp : ?log:log -> ?name:string -> t -> Types.kind -> int
val connect : ?log:log -> t -> int -> string -> int -> unit
(** [connect t comp pin net] attaches the pin, detaching any previous
    connection first. *)

val disconnect : ?log:log -> t -> int -> string -> unit
val connection : t -> int -> string -> int option
val connections : t -> int -> (string * int) list
val remove_comp : ?log:log -> t -> int -> unit
val remove_net : ?log:log -> t -> int -> unit
(** @raise Error if the net still has pins or a port. *)

val set_kind : ?log:log -> t -> int -> Types.kind -> unit

val undo : t -> log -> unit
(** Undo every recorded edit (most recent first) and clear the log.
    The fresh-id counters ({!counters}) are restored too: undoing the
    addition of the newest component or net id hands that id back, so
    after a log is undone the next {!add_comp} and {!new_net} return
    the ids they would have returned had the log never been recorded.
    An id that is not the newest stays spent, so undoing an older log
    after a later one was committed never lowers a counter below an id
    that is still in use. *)

(** Semantic-guard verdict on one committed rule application. *)
type verdict =
  | Certified  (** rule statically certified; cone check skipped *)
  | Checked  (** cone check ran and passed *)
  | Skipped  (** sampled out or unverifiable site *)
  | Unguarded  (** guard off for this stage *)

val verdict_name : verdict -> string
val verdict_of_name : string -> verdict option

type attribution = {
  at_site : string option;  (** site digest; engine commits only *)
  at_verdict : verdict option;  (** engine commits only *)
  at_before : Milo_trace.Trace.cost option;
      (** measurer totals around the commit; [None] outside a measured
          window *)
  at_after : Milo_trace.Trace.cost option;
}
(** What the committer knows about a commit beyond its entries: the
    flow writes it into the commit's journal record. *)

val no_attribution : attribution

val commit : ?label:string -> ?attr:attribution -> ?design:t -> log -> unit
(** Drop the recorded edits, keeping the changes.  When [design] is
    given and it has a commit hook installed ({!set_commit_hook}), the
    hook observes the committed entries (in application order) first,
    tagged with [label] (e.g. the rule or strategy that produced them)
    and [attr] (default {!no_attribution}).  Without [design] the
    commit is silent — scratch copies and evaluation-only logs never
    reach the hook. *)

val set_commit_hook :
  t -> (string option -> attribution -> entry list -> unit) option -> unit
(** Install (or clear, with [None]) this design's commit observer.
    Used by the flow to record every committed change-log delta.  Not
    propagated by {!copy}, so nothing committed on a copy is
    recorded. *)

val has_commit_hook : t -> bool
(** Whether commits on this design are observed: a committer builds
    its {!attribution} only when they are. *)

val redo : t -> entry list -> unit
(** Re-apply committed entries forward (application order) — the
    inverse of {!undo}, used to replay a recorded trajectory onto a
    restored snapshot.  Ids are reproduced exactly; the fresh-id
    counters advance past every replayed id. *)

val entries : log -> entry list
(** Recorded edits in application order. *)

(** {2 Snapshot restore}

    Id-exact reconstruction: {!restore_net}/{!restore_comp} insert at a
    caller-chosen id (unlike [new_net]/[add_comp], which allocate), so
    a deserialized snapshot is structurally identical — same ids, same
    {!signature} — to the design that was serialized.  @raise Error on
    an id collision. *)

val restore_net : t -> id:int -> name:string -> unit
val restore_comp : t -> id:int -> name:string -> Types.kind -> unit

val set_counters : t -> next_comp:int -> next_net:int -> unit
(** Raise the fresh-id counters to at least the given values (never
    lowers them), so allocation resumes exactly where the serialized
    design left off. *)

val counters : t -> int * int
(** Current [(next_comp, next_net)] fresh-id counters. *)

(** {2 Pin directions, drivers and loads}

    Two facts are memoised next to the data they derive from, so a
    repeated {!driver} or {!fanout} costs O(1) instead of resolving
    every pin on the net:

    - a component's resolved pin list, valid while its [kind] is
      physically the value it was resolved for;
    - a net's first driving pin and its number of input pins, valid
      while its [npins] list is physically the one they were computed
      from.  The port binding is read live.

    Every attach and detach replaces [npins], and {!set_kind} (with its
    {!undo} and {!redo}) resets the memos of the nets its component is
    connected to, so edits made through the mutators never leave a
    stale answer.  A direct assignment to [kind] is safe only when
    every pin keeps its direction (as an inverter turned into a
    buffer does); the [net-consistency] lint pass reports a stale
    driver index otherwise.

    The memos are keyed on the kind alone, not on the resolver: the
    resolver is consulted only on a miss.  This rests on every resolver
    a design is queried with giving a kind the same pin list, which
    holds for every resolver in the tree: they return the named
    macro's [Macro.pins]; library macro names do not overlap (generic
    names carry no prefix, ECL's start with [E_], CMOS's with [C_]);
    and instance pins are the sub-design's ports, which cannot be
    undone.  A design holds no closure, so designs still compare with
    [=].  Two domains reading one design can race only into a
    recompute. *)

(** Where a net's value comes from. *)
type source = Src_comp of int * string | Src_port of string | Src_none

val pin_dir : ?resolve:resolver -> t -> int -> string -> Types.dir
(** Direction of a component's pin.  [resolve] is needed for
    [Macro]/[Instance] kinds on a memo miss.
    @raise Error if the component has no such pin. *)

val driver : ?resolve:resolver -> t -> int -> source
(** The net's first output pin in [npins] order; failing that, the input
    port bound to it; failing that, [Src_none].  Resolves every pin of
    the net on a memo miss, so a pin its component does not have raises
    {!Error} even after a driver. *)

val sinks : ?resolve:resolver -> t -> int -> (int * string) list
(** The net's input pins, in [npins] order. *)

val fanout : ?resolve:resolver -> t -> int -> int
(** Number of input pins plus output ports fed by the net. *)

val copy : t -> t
(** Deep structural copy.  The memos carry over: the copy shares the
    kind values and pin lists they are keyed on. *)

val equal_structure : t -> t -> bool
(** Structural equality (used to property-test apply-then-undo). *)

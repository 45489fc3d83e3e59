(** Incremental cost evaluation: delta-STA plus streaming area/power
    accumulators, kept in lock-step with a design's change log.

    A measurer owns the timing state ({!Milo_timing.Sta.t}) and running
    area/power totals of one design.  The engine's apply/measure/undo
    discipline drives it with {!advance} (fold a change log in),
    {!retreat} (the design was undone; restore the previous state
    exactly) and {!commit} (keep it).  Macro lookups go through a
    hit-counted memo cache shared by the timing and estimate sides. *)

module D = Milo_netlist.Design

type totals = { delay : float; area : float; power : float }

type stats = {
  advances : int;
  retreats : int;
  commits : int;
  resyncs : int;
  env_hits : int;
  env_misses : int;  (** misses = distinct macros resolved *)
  oracle_checks : int;
}

type t

type token
(** Undo record for one {!advance}; tokens retreat newest-first. *)

exception Divergence of string
(** Raised by the differential oracle when the incremental state
    disagrees with a full recompute (see {!set_debug_check}). *)

val set_debug_check : bool -> unit
(** When enabled, every {!advance} and {!retreat} is cross-checked
    against a from-scratch [Sta.analyze] + estimate fold and raises
    {!Divergence} if they differ by more than 1e-9 (relative).  Costs a
    full recompute per measurement — debugging only.  Global; off by
    default. *)

val create :
  ?input_arrivals:(string * float) list ->
  Milo_library.Technology.t ->
  D.t ->
  t
(** Full analysis of the design's current state.  Raises
    [Invalid_argument] on unmapped components or combinational loops,
    like [Sta.analyze]. *)

val fork : t -> D.t -> t
(** [fork t design] measures [design], an id-preserving copy of [t]'s
    design in the same state ([D.copy]), from a copy of [t]'s state:
    timing ({!Milo_timing.Sta.copy}), running totals and input
    arrivals, with fresh counters and its own macro memo seeded from
    [t]'s.  No full analysis runs.  Forking only reads [t], and nothing
    done through the fork reaches [t], so forks of one measurer may run
    on other domains while [t] is left alone. *)

val design : t -> D.t
val env : t -> Milo_timing.Sta.env
(** The memoized macro environment (also usable for estimates). *)

val sta : t -> Milo_timing.Sta.t
(** The live timing view; valid until the next advance/retreat. *)

val current : t -> totals
(** The running totals — O(1), no recompute. *)

val advance : t -> D.entry list -> token
(** Fold the (oldest-first, as from [D.entries]) change-log entries
    into the state: delta-STA over the touched cone, kind-delta
    adjustment of the totals.  Call after the edits have been applied
    to the design.  On an exception the state is left as before the
    call. *)

val retreat : t -> token -> unit
(** Call after [D.undo] of the corresponding log: restores the exact
    pre-advance state (absolute totals, not delta subtraction). *)

val commit : t -> token -> unit
(** Keep the advanced state; the token is dead. *)

val resync : t -> unit
(** Full recompute in place — the safety valve when the log for an edit
    is unavailable (e.g. a failed advance on the commit path). *)

val stats : t -> stats

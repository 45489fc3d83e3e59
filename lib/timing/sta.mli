(** Static timing analysis over technology-mapped (macro-level) designs.

    Arrival(out) = max over inputs (arrival(in) + arc delay) + drive ×
    output load.  Sources: input ports (optionally offset) and
    sequential CLK→Q launches.  Endpoints: output ports and sequential
    data/control pins. *)

module D = Milo_netlist.Design

type env = string -> Milo_library.Macro.t

type endpoint = Ep_port of string | Ep_seq_pin of int * string

type t

val net_load : t -> int -> float
val analyze : ?input_arrivals:(string * float) list -> env -> D.t -> t
(** Raises [Invalid_argument] on unmapped components or combinational
    loops. *)

val copy : t -> design:D.t -> env:env -> t
(** [copy t ~design ~env] is an independent analysis of [design], an
    id-preserving copy of [t]'s design in the same state ([D.copy]),
    read through [env]: the arrivals, endpoints and worst-delay cache
    are copied, not recomputed.  Endpoints that tie on arrival are
    listed in the same order as on [t].  Updating either leaves the
    other as it was. *)

val worst_delay : t -> float
val endpoints : t -> (endpoint * float) list
(** Sorted by arrival, latest first. *)

val net_arrival : t -> int -> float option

type token
(** Undo record for one {!update}: the previous value of every arrival
    and endpoint the update overwrote. *)

val update : t -> touched_nets:int list -> touched_comps:int list -> token
(** Re-propagate arrivals through the forward cone of the given nets
    and components (typically read off a design change log) instead of
    re-analyzing the whole design.  The touched sets must cover every
    net whose driver, load or existence changed and every component
    added, removed, re-kinded or re-connected since the last
    [analyze]/[update].  The whole cone is levelized, but a member is
    re-evaluated only when it is touched, drives or reads a touched
    net, or reads a net whose arrival (or the arc that set it) this
    update changed; every other member would recompute the same bits.
    Returns a token for {!rollback}; tokens must be rolled back
    newest-first.  On [Invalid_argument] (unmapped
    component, combinational loop) the state is restored before the
    exception propagates. *)

val rollback : t -> token -> unit
(** Restore the arrival state exactly as it was before the
    corresponding {!update}, down to the order {!endpoints} lists
    endpoints that tie on arrival in. *)

type hop = { comp : int; in_pin : string; out_pin : string }

type path = {
  path_endpoint : endpoint;
  path_delay : float;
  hops : hop list;  (** input side first *)
}

val critical_path : t -> path option
val critical_paths : ?count:int -> t -> path list
val slacks : required:float -> t -> (endpoint * float) list
val endpoint_name : t -> endpoint -> string

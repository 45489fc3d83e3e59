(** Levelized logic simulation of mixed microarchitecture / macro
    designs with an implicit global clock.

    Two engines share one evaluation schedule, computed once per
    design at [create]:

    - the scalar path ([settle]/[outputs]/[step]) evaluates one input
      vector per pass through the reference semantics in {!Eval};
    - the packed path ([settle_packed]/[outputs_packed]/[output_words]/
      [cycle_packed]) evaluates [lanes] vectors per pass, one per bit
      position of a native [int] word, through the word-level semantics
      in {!Eval.Packed}, each component compiled to slot reads and word
      operations at [create]. *)

module D = Milo_netlist.Design

type env = { find_macro : string -> Milo_library.Macro.t }

val env_of_techs : Milo_library.Technology.t list -> env
(** Macro lookup across several libraries (first match wins). *)

val resolver_of_env : env -> D.resolver

type t

val create : env -> D.t -> t
(** All sequential state starts at zero. *)

val reset : t -> unit

val set_state : t -> int -> int -> unit
(** Set a sequential component's state, broadcast to every packed
    lane, so scalar and packed runs observe the same initial state. *)

exception Combinational_loop of string list
(** Component names that never settled. *)

val settle : t -> (string * bool) list -> (int, bool) Hashtbl.t
(** Evaluate all combinational logic under the given input-port
    assignment; returns net values.  Undriven nets read as [false]. *)

val outputs : t -> (string * bool) list -> (string * bool) list
(** Output-port values under the given inputs (no clock edge). *)

val step : t -> (string * bool) list -> unit
(** Apply one synchronous clock edge. *)

val net_value : t -> int -> bool option
(** Value of a net in the most recent scalar [settle]. *)

(** {2 Packed (bit-parallel) engine}

    Ports carry one word each; bit [l] of a word is input vector [l]'s
    value, for [l < lanes].  A packed pass evaluates all lanes at
    once. *)

val lanes : int
(** Vectors evaluated per packed pass ([Sys.int_size]: 63 on 64-bit). *)

val settle_packed : t -> (string * int) list -> unit
(** Packed combinational settle; absent input ports read as all-zero.
    Results are read with [outputs_packed]. *)

val outputs_packed : t -> (string * int) list -> (string * int) list
(** Output-port words under the given packed inputs (no clock edge). *)

val output_ports : t -> string array
(** The design's output ports, in the order of the word arrays below. *)

val output_words : t -> (string * int) list -> int array
(** [outputs_packed] as one word per {!output_ports} entry. *)

val cycle_packed : t -> (string * int) list -> int array
(** One lock-step cycle on all lanes at once: the {!output_words} under
    the given inputs, then a synchronous clock edge on the same
    settle. *)

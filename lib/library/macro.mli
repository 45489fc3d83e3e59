(** Library macros: SSI/MSI building blocks with timing, area, power and
    behavioural data.

    Timing: delay(input→output) = arc delay + [drive] × total sink load.
    Per-input arcs differ slightly (strategy 1's lever); [symmetric]
    lists interchangeable input-pin groups. *)

open Milo_boolfunc

type power_level = Standard | High

type dff_data = Direct | Muxed of int  (** flip-flop fed directly or through an n-input mux *)

type behavior =
  | Combinational of (string * Truth_table.t) list
  | Comb_eval of {
      eval : bool array -> bool array;
          (** one vector: inputs in [inputs] order, outputs in
              [outputs] order *)
      eval_words : int array -> int array -> unit;
          (** the same function on every lane at once:
              [eval_words ins outs] reads input [i]'s word (bit [l] is
              lane [l]'s value) from [ins.(i)] and writes output [j]'s
              word to [outs.(j)] *)
    }  (** for macros too wide for a truth table (e.g. 4-bit adders) *)
  | Seq_dff of {
      data : dff_data;
      latch : bool;
      has_set : bool;
      has_reset : bool;
      has_enable : bool;
      inverting : bool;
    }
  | Seq_counter of {
      bits : int;
      has_load : bool;
      has_updown : bool;
      has_reset : bool;
      has_enable : bool;
    }
  | Seq_custom of {
      state_bits : int;
      state_only : string list;
          (** outputs that depend on the stored state alone *)
      custom_outputs : state:int -> (string * bool) list -> (string * bool) list;
      custom_next : state:int -> (string * bool) list -> int;
    }  (** escape hatch for sequential behaviours outside the two
           built-in shapes; simulated lane-by-lane in the packed
           engine *)

type t = {
  mname : string;
  pins : (string * Milo_netlist.Types.dir) list;
  inputs : string list;
  outputs : string list;
  arcs : ((string * string) * float) list;
  area : float;
  power : float;
  drive : float;
  load : float;
  behavior : behavior;
  power_level : power_level;
  base_name : string;
  gates : float;
  symmetric : string list list;
}

val name : t -> string

val make :
  ?power_level:power_level ->
  ?base_name:string ->
  ?drive:float ->
  ?load:float ->
  ?input_skew:float ->
  ?arcs:((string * string) * float) list ->
  ?symmetric:string list list ->
  delay:float ->
  area:float ->
  power:float ->
  gates:float ->
  string ->
  (string * Milo_netlist.Types.dir) list ->
  behavior ->
  t
(** Build a macro.  Unless [arcs] is given, every input→output arc gets
    [delay × (1 + input_skew × input_index)]. *)

val arc_delay : t -> string -> string -> float
val arc_delay_opt : t -> string -> string -> float option
val worst_delay : t -> float
val is_sequential : t -> bool

val single_output_tt : t -> Truth_table.t option
(** The macro's truth table when it is single-output combinational with a
    table-sized input count. *)

val eval_comb : t -> bool array -> bool array
(** Evaluate a combinational macro on inputs ordered as [inputs];
    raises on sequential macros. *)

val state_only_outputs : t -> string list
(** Output pins that are a function of the stored state alone (safe to
    seed before the component's inputs are known); empty for
    combinational macros. *)

val state_bits : t -> int
(** Width of the stored state; 0 for combinational macros. *)

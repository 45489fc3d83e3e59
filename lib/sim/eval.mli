(** Behavioural semantics of the microarchitecture component kinds and of
    library macros — the reference against which compiled designs and
    rule applications are checked. *)

module T = Milo_netlist.Types

type pin_values = (string * bool) list
(** Pin assignment; absent pins read as [false]. *)

val get : pin_values -> string -> bool
val bus : pin_values -> string -> int -> int
(** Read pins [prefix0..prefix(bits-1)] as a little-endian integer. *)

val bus_out : string -> int -> int -> pin_values
val mask : int -> int

val comb_outputs : T.kind -> pin_values -> pin_values
(** Outputs of a combinational micro component.  Raises on sequential
    kinds, macros and instances. *)

val next_state : T.kind -> state:int -> pin_values -> int
(** Next register contents of a sequential micro component after a clock
    edge.  Priority: SET > RST > not-EN (hold) > function. *)

val seq_outputs : T.kind -> state:int -> pin_values -> pin_values
(** Present outputs of a sequential micro component. *)

val macro_comb_outputs : Milo_library.Macro.t -> pin_values -> pin_values
val macro_next_state : Milo_library.Macro.t -> state:int -> pin_values -> int
val macro_seq_outputs :
  Milo_library.Macro.t -> state:int -> pin_values -> pin_values

val state_only_outputs : T.kind -> string list
(** Outputs of a sequential micro component that depend on the stored
    state alone (safe to seed before the inputs are known); empty for
    combinational kinds.  Replaces the old "pin starts with Q"
    heuristic. *)

val state_bits : T.kind -> int

(** Bit-parallel mirror of the scalar semantics: every net carries one
    native int word, bit [l] of which is the value of simulation lane
    [l].  Sequential state is stored as bit-planes (plane [b] = bit [b]
    of every lane's register).  A component is compiled once into
    closures over a value array, after which evaluating it is slot
    reads and word operations. *)
module Packed : sig
  val lanes : int
  (** Lanes per word = [Sys.int_size] (63 on 64-bit). *)

  val zero : int
  val ones : int

  val lane_mask : int -> int
  (** The word with the low [n] lanes set (all of them for [n >= lanes]). *)

  val first_lane : int -> int
  (** Index of the lowest set lane of a non-zero word. *)

  val minterm_words : 'k list -> int -> ('k * int) list
  (** [minterm_words keys base]: the exhaustive order from minterm
      [base], one lane per minterm — lane [l] of the [i]-th key's word
      is bit [i] of [base + l].  Every lane is filled; mask the lanes
      past the last minterm with [lane_mask]. *)

  val mux2 : int -> int -> int -> int
  (** [mux2 c a b] is per-lane [if c then a else b]. *)

  val eval_tt : Milo_boolfunc.Truth_table.t -> int array -> int
  (** Evaluate a truth table over word literals (variable [i] =
      [ws.(i)]); compiled once per table into a sum of products and
      cached. *)

  val state_of_planes : int array -> int -> int
  val planes_of_state : int -> int -> int array

  (** {2 Compiled components} *)

  type code = {
    outputs : unit -> unit;
        (** evaluate the component and write every output's word; the
            outputs that depend on the stored state alone
            ({!state_only_outputs}) read only the state planes *)
    clock : unit -> unit;
        (** one clock edge: replace the state planes by their next
            value, read from the settled input words; nothing for
            combinational kinds *)
  }

  val value_array : int -> int array
  (** [value_array n]: the zeroed value array for [n] net slots, with
      two more words past them, one that unconnected inputs read (it
      stays 0 as long as the array is zero-filled before a pass) and
      one that unconnected outputs write. *)

  val compile :
    int array -> slot:(string -> int) -> planes:int array -> T.kind -> code
  (** Compile a micro component over a {!value_array}: [slot pin] is the
      pin's net slot, or -1 when the pin is unconnected, and [planes]
      its state (sequential kinds).  Raises on macros and instances. *)

  val compile_macro :
    int array ->
    slot:(string -> int) ->
    planes:int array ->
    Milo_library.Macro.t ->
    code
  (** The same for a library macro.  [Seq_custom] behaviours run their
      scalar closures lane by lane. *)
end

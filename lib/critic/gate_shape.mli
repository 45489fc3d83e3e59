(** Behavioural (truth-table) recognition of gate shapes, so rules work
    across the generic, ECL and CMOS libraries regardless of naming. *)

module T = Milo_netlist.Types
module Macro = Milo_library.Macro

type shape = { fn : T.gate_fn; arity : int }

val of_macro : Macro.t -> shape option
val is_inv : Macro.t -> bool
val is_const : Macro.t -> bool option
(** [Some b] when the macro is the constant [b]. *)

val mux_inputs : Macro.t -> int option
(** [Some n] when the macro is an n-to-1 single-bit mux. *)

(** Area/power accounting for mapped designs, and the formula-based
    microarchitecture estimator of Section 5 ("first method": estimate
    design statistics from component parameters without compiling). *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type env = string -> Milo_library.Macro.t

val kind_area : env -> T.kind -> float
val kind_power : env -> T.kind -> float
(** Cost of one component kind ([Macro]: library value, [Constant]: 0;
    anything unmapped raises [Invalid_argument]).  Used by the
    streaming accumulators in [Milo_measure], which price change-log
    entries without a component at hand. *)

val comp_area : env -> D.comp -> float
val comp_power : env -> D.comp -> float
val area : env -> D.t -> float
(** Total area in cells of a technology-mapped design. *)

val power : env -> D.t -> float
(** Total power in mW of a technology-mapped design. *)

type coefficients = {
  cells_per_gate : float;
  ns_per_level : float;
  mw_per_gate : float;
}

val ecl_coefficients : coefficients
val generic_coefficients : coefficients

type micro_estimate = { est_area : float; est_delay : float; est_power : float }

val kind_levels : T.kind -> float
(** Logic levels a component adds on its worst path. *)

val micro : ?coefficients:coefficients -> T.kind -> micro_estimate
val micro_design : ?coefficients:coefficients -> D.t -> micro_estimate

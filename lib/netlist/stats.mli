(** Structural statistics: kind histograms, maximum fanout, and the
    two-input-equivalent gate count used for Figure 19's "Complexity"
    column. *)

type histogram = (string * int) list

val kind_histogram : Design.t -> histogram

val kind_gates : ?macro_gates:(string -> float) -> Types.kind -> float
(** Two-input-equivalent gate cost of a single component.  [macro_gates]
    rates library macros (defaults to 1 gate each). *)

val two_input_equiv : ?macro_gates:(string -> float) -> Design.t -> int
val max_fanout : ?resolve:Design.resolver -> Design.t -> int

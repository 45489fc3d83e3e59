(** Equivalence checking by simulation: exhaustive for small input
    counts, random-vector otherwise; lock-step state simulation for
    sequential designs.

    Both checks run bit-parallel on {!Simulator}'s packed engine
    ([Simulator.lanes] vectors per settle) and stream their vectors —
    no sweep materializes anything proportional to [2^n].  Input and
    output port sets are validated symmetrically on both designs
    before any simulation; [Invalid_argument] is raised on any
    drop/rename. *)

module D = Milo_netlist.Design

type result =
  | Equivalent
  | Mismatch of {
      inputs : (string * bool) list;  (** the failing input vector *)
      ports : string list;  (** every output port that diverges under it *)
      cycle : int option;  (** cycle number for sequential runs *)
    }

val combinational :
  ?max_exhaustive:int ->
  ?vectors:int ->
  ?seed:int ->
  Simulator.env ->
  D.t ->
  Simulator.env ->
  D.t ->
  result
(** Compare two designs with identical port interfaces.  Exhaustive up
    to [max_exhaustive] inputs (default 12, clamped below the native
    word size), then [vectors] random vectors. *)

val sequential :
  ?cycles:int ->
  ?runs:int ->
  ?seed:int ->
  Simulator.env ->
  D.t ->
  Simulator.env ->
  D.t ->
  result
(** Lock-step comparison from reset over random stimulus: [runs]
    independent runs in the lanes of one pair of simulators, one packed
    settle per cycle. *)

val is_equivalent : result -> bool
val pp_result : Format.formatter -> result -> unit

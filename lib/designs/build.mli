(** Programmatic design construction (the stand-in for schematic
    entry). *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type t = {
  design : D.t;
  lib : Milo_library.Technology.t;
  set : Milo_compilers.Gate_comp.gate_set;
}

val start : string -> t
val input : t -> string -> int
val output : t -> string -> int
val input_bus : t -> string -> int -> int list
val output_bus : t -> string -> int -> int list
val gate : t -> T.gate_fn -> int list -> int
val vdd : t -> int
val vss : t -> int
val comp : t -> ?name:string -> T.kind -> int
val pin : t -> int -> string -> int -> unit
val out_pin : t -> int -> string -> int
val out_bus : t -> int -> string -> int -> int list
val expose : t -> int -> int -> unit
val expose_bus : t -> int list -> int list -> unit
val finish : t -> D.t

(* Small helpers for constructing benchmark designs programmatically
   (the stand-in for schematic entry). *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

type t = {
  design : D.t;
  lib : Milo_library.Technology.t;
  set : Milo_compilers.Gate_comp.gate_set;
}

let start name =
  let lib = Milo_library.Generic.get () in
  {
    design = D.create name;
    lib;
    set = Milo_compilers.Gate_comp.generic_set lib;
  }

let input b name = D.add_port b.design name T.Input
let output b name = D.add_port b.design name T.Output

let input_bus b name width =
  List.init width (fun i -> D.add_port b.design (Printf.sprintf "%s%d" name i) T.Input)

let output_bus b name width =
  List.init width (fun i -> D.add_port b.design (Printf.sprintf "%s%d" name i) T.Output)

let gate b fn ins = Milo_compilers.Gate_comp.build b.design b.set fn ins
let vdd b = Milo_compilers.Gate_comp.add_const b.design b.set T.Vdd
let vss b = Milo_compilers.Gate_comp.add_const b.design b.set T.Vss

(* Add a micro component; returns functions to connect and read pins. *)
let comp b ?name kind =
  let cid = D.add_comp ?name b.design kind in
  cid

let pin b cid pname net = D.connect b.design cid pname net

let out_pin b cid pname =
  match D.connection b.design cid pname with
  | Some nid -> nid
  | None ->
      let nid = D.new_net b.design in
      D.connect b.design cid pname nid;
      nid

let out_bus b cid prefix width =
  List.init width (fun i -> out_pin b cid (Printf.sprintf "%s%d" prefix i))

(* Drive an output port from an internal net. *)
let expose b net port_net =
  let resolve kind nm =
    match kind with
    | T.Macro _ -> (Milo_library.Technology.find b.lib nm).Milo_library.Macro.pins
    | T.Instance _ -> invalid_arg "Build.expose: instance"
    | T.Gate _ | T.Multiplexor _ | T.Decoder _ | T.Comparator _
    | T.Logic_unit _ | T.Arith_unit _ | T.Register _ | T.Counter _
    | T.Constant _ ->
        T.pins_of_kind kind
  in
  match D.driver ~resolve b.design net with
  | D.Src_comp (_, _) ->
      let pins = (D.net b.design net).D.npins in
      List.iter (fun (cid, pname) -> D.connect b.design cid pname port_net) pins;
      (match D.net_opt b.design net with
      | Some n when n.D.npins = [] && n.D.nport = None ->
          D.remove_net b.design net
      | Some _ | None -> ())
  | D.Src_port _ | D.Src_none ->
      (* Buffer a port-driven (or floating) net onto the output. *)
      let cid = D.add_comp b.design (T.Macro "BUF") in
      D.connect b.design cid "A0" net;
      D.connect b.design cid "Y" port_net

let expose_bus b nets ports = List.iter2 (fun n p -> expose b n p) nets ports
let finish b = b.design

(* Library macros: the SSI/MSI building blocks of the generic library
   (Figure 13) and of the technology libraries the mapper targets.

   Timing model: delay(input -> output) = arc delay + drive * total sink
   load on the output net.  Per-input arc delays differ (later inputs are
   slightly slower), which is what strategy 1 "swap equivalent signals"
   exploits; [symmetric] lists the interchangeable input groups. *)

open Milo_boolfunc

type power_level = Standard | High

type dff_data = Direct | Muxed of int

type behavior =
  | Combinational of (string * Truth_table.t) list
      (** per output pin, truth table over the macro's inputs in order *)
  | Comb_eval of {
      eval : bool array -> bool array;
      eval_words : int array -> int array -> unit;
    }
      (** for macros too wide for a truth table (e.g. 4-bit adders):
          [eval] on one vector, [eval_words] on lane words *)
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
      custom_outputs : state:int -> (string * bool) list -> (string * bool) list;
      custom_next : state:int -> (string * bool) list -> int;
    }

type t = {
  mname : string;
  pins : (string * Milo_netlist.Types.dir) list;
  inputs : string list;
  outputs : string list;
  arcs : ((string * string) * float) list;  (** (input, output) -> delay *)
  area : float;  (** cells *)
  power : float;  (** mW *)
  drive : float;  (** extra delay per unit of fanout load *)
  load : float;  (** load each input presents *)
  behavior : behavior;
  power_level : power_level;
  base_name : string;  (** family name shared by power variants *)
  gates : float;  (** two-input-equivalent complexity *)
  symmetric : string list list;  (** interchangeable input pin groups *)
}

let name m = m.mname

let make ?(power_level = Standard) ?base_name ?(drive = 0.05) ?(load = 1.0)
    ?(input_skew = 0.08) ?arcs ?(symmetric = []) ~delay ~area ~power ~gates
    mname pins behavior =
  let open Milo_netlist.Types in
  let inputs = List.filter_map (fun (p, d) -> if d = Input then Some p else None) pins in
  let outputs =
    List.filter_map (fun (p, d) -> if d = Output then Some p else None) pins
  in
  let arcs =
    match arcs with
    | Some a -> a
    | None ->
        List.concat
          (List.mapi
             (fun i inp ->
               let d = delay *. (1.0 +. (input_skew *. float_of_int i)) in
               List.map (fun out -> ((inp, out), d)) outputs)
             inputs)
  in
  {
    mname;
    pins;
    inputs;
    outputs;
    arcs;
    area;
    power;
    drive;
    load;
    behavior;
    power_level;
    base_name = Option.value base_name ~default:mname;
    gates;
    symmetric;
  }

let arc_delay m inp out =
  match List.assoc_opt (inp, out) m.arcs with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Macro.arc_delay: %s has no arc %s->%s" m.mname inp out)

let arc_delay_opt m inp out = List.assoc_opt (inp, out) m.arcs

let worst_delay m =
  List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 m.arcs

let is_sequential m =
  match m.behavior with
  | Seq_dff _ | Seq_counter _ | Seq_custom _ -> true
  | Combinational _ | Comb_eval _ -> false

let single_output_tt m =
  match (m.behavior, m.outputs) with
  | Combinational [ (_, tt) ], [ _ ] -> Some tt
  | Combinational _, _ | Comb_eval _, _ | Seq_dff _, _ | Seq_counter _, _
  | Seq_custom _, _ ->
      None

let eval_comb m input =
  match m.behavior with
  | Combinational outs ->
      let arr = Array.of_list (List.map (fun (_, tt) -> Truth_table.eval tt input) outs) in
      arr
  | Comb_eval { eval; _ } -> eval input
  | Seq_dff _ | Seq_counter _ | Seq_custom _ ->
      invalid_arg (Printf.sprintf "Macro.eval_comb: %s is sequential" m.mname)

(* Outputs that are a function of the stored state alone — the set a
   simulator may seed before the component's inputs are known.  A
   counter's COUT is input-dependent when the direction comes from a
   pin; everything else sequential here depends only on the state. *)
let state_only_outputs m =
  match m.behavior with
  | Combinational _ | Comb_eval _ -> []
  | Seq_dff _ -> m.outputs
  | Seq_counter { bits; has_updown; _ } ->
      List.init bits (fun b -> Printf.sprintf "Q%d" b)
      @ (if has_updown then [] else [ "COUT" ])
  | Seq_custom { state_only; _ } -> state_only

let state_bits m =
  match m.behavior with
  | Combinational _ | Comb_eval _ -> 0
  | Seq_dff _ -> 1
  | Seq_counter { bits; _ } -> bits
  | Seq_custom { state_bits; _ } -> state_bits

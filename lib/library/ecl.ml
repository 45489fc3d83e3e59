(* A synthetic ECL gate-array library, standing in for the proprietary
   library the paper used (see DESIGN.md).  ECL characteristics:

   - OR/NOR are the native, fast gates (single current-switch level);
     AND/NAND are slower (built from NOR + inversions);
   - dual-output OR/NOR macros exist (both collector phases come for
     free), which inverter-elimination rules exploit;
   - every core gate has a high-power variant: ~0.65x delay for ~1.9x
     power at equal area — exactly what strategy 2 swaps in;
   - the MSI section has the mux-with-flip-flop macros the paper's
     REG4/ABADD optimization example merges into. *)

module T = Milo_netlist.Types
open Milo_boolfunc

let hp base (m : Macro.t) =
  (* High-power variant of a combinational macro. *)
  {
    m with
    Macro.mname = m.Macro.mname ^ "H";
    base_name = base;
    arcs = List.map (fun (k, d) -> (k, d *. 0.65)) m.Macro.arcs;
    power = m.Macro.power *. 1.9;
    power_level = Macro.High;
  }

let with_hp (m : Macro.t) = [ m; hp m.Macro.mname m ]

let or_nor =
  List.concat_map
    (fun n ->
      let fl = float_of_int (n - 2) in
      let delay = 0.55 +. (0.1 *. fl) in
      let area = 1.0 +. (0.4 *. fl) in
      let power = 1.1 +. (0.3 *. fl) in
      with_hp
        (Defs.gate ~delay ~area ~power ~gates:(float_of_int (n - 1))
           (Printf.sprintf "E_OR%d" n) T.Or n)
      @ with_hp
          (Defs.gate ~delay:(delay *. 0.95) ~area ~power
             ~gates:(float_of_int (n - 1))
             (Printf.sprintf "E_NOR%d" n) T.Nor n))
    [ 2; 3; 4; 5 ]

(* Dual-output OR/NOR: both phases from one current switch. *)
let ornor n =
  let pins =
    T.range_pins "A" n T.Input @ [ ("Y", T.Output); ("YN", T.Output) ]
  in
  let fl = float_of_int (n - 2) in
  Macro.make
    ~delay:(0.6 +. (0.1 *. fl))
    ~area:(1.3 +. (0.4 *. fl))
    ~power:(1.4 +. (0.3 *. fl))
    ~gates:(float_of_int n)
    ~symmetric:[ List.init n (fun i -> Printf.sprintf "A%d" i) ]
    (Printf.sprintf "E_ORNOR%d" n)
    pins
    (Macro.Combinational
       [ ("Y", Defs.gate_tt T.Or n); ("YN", Defs.gate_tt T.Nor n) ])

let and_nand =
  List.concat_map
    (fun n ->
      let fl = float_of_int (n - 2) in
      let delay = 0.9 +. (0.15 *. fl) in
      let area = 1.2 +. (0.5 *. fl) in
      let power = 1.3 +. (0.35 *. fl) in
      with_hp
        (Defs.gate ~delay ~area ~power ~gates:(float_of_int (n - 1))
           (Printf.sprintf "E_AND%d" n) T.And n)
      @ with_hp
          (Defs.gate ~delay:(delay *. 0.95) ~area ~power
             ~gates:(float_of_int (n - 1))
             (Printf.sprintf "E_NAND%d" n) T.Nand n))
    [ 2; 3 ]

let misc_gates =
  with_hp (Defs.gate ~delay:0.35 ~area:0.5 ~power:0.6 ~gates:0.5 "E_INV" T.Inv 1)
  @ with_hp (Defs.gate ~delay:0.45 ~area:0.5 ~power:0.7 ~gates:0.5 "E_BUF" T.Buf 1)
  @ with_hp (Defs.gate ~delay:1.1 ~area:2.2 ~power:1.8 ~gates:3.0 "E_XOR2" T.Xor 2)
  @ with_hp (Defs.gate ~delay:1.1 ~area:2.2 ~power:1.8 ~gates:3.0 "E_XNOR2" T.Xnor 2)
  @ [ ornor 2; ornor 3; Defs.constant "E_VDD" true; Defs.constant "E_VSS" false ]

(* Complex OR-AND / AND-OR gates (series gating). *)
let complex =
  let oa21 =
    Macro.make ~delay:0.8 ~area:1.4 ~power:1.5 ~gates:2.0
      ~symmetric:[ [ "A"; "B" ] ] "E_OA21"
      [ ("A", T.Input); ("B", T.Input); ("C", T.Input); ("Y", T.Output) ]
      (Macro.Combinational
         [ ("Y", Truth_table.of_fun 3 (fun a -> (a.(0) || a.(1)) && a.(2))) ])
  in
  let oa22 =
    Macro.make ~delay:0.9 ~area:1.8 ~power:1.8 ~gates:3.0
      ~symmetric:[ [ "A"; "B" ]; [ "C"; "D" ] ] "E_OA22"
      [ ("A", T.Input); ("B", T.Input); ("C", T.Input); ("D", T.Input);
        ("Y", T.Output) ]
      (Macro.Combinational
         [ ( "Y",
             Truth_table.of_fun 4 (fun a ->
                 (a.(0) || a.(1)) && (a.(2) || a.(3))) ) ])
  in
  let ao21 =
    Macro.make ~delay:0.85 ~area:1.5 ~power:1.5 ~gates:2.0
      ~symmetric:[ [ "A"; "B" ] ] "E_AO21"
      [ ("A", T.Input); ("B", T.Input); ("C", T.Input); ("Y", T.Output) ]
      (Macro.Combinational
         [ ("Y", Truth_table.of_fun 3 (fun a -> (a.(0) && a.(1)) || a.(2))) ])
  in
  List.concat_map with_hp [ oa21; oa22; ao21 ]

let msi =
  [
    Defs.mux ~delay:0.9 ~area:1.8 ~power:1.6 ~gates:3.0 "E_MUX2" 2;
    Defs.mux ~delay:1.3 ~area:3.8 ~power:2.8 ~gates:7.0 "E_MUX4" 4;
    Defs.decoder ~delay:1.1 ~area:3.4 ~power:2.4 ~gates:6.0 "E_DEC2x4" 2 false;
    Defs.decoder ~delay:0.6 ~area:1.2 ~power:1.1 ~gates:2.0 "E_DEC1x2" 1 false;
    Defs.full_adder ~delay:1.5 ~area:3.4 ~power:2.6 ~gates:5.0 "E_ADD1";
    Defs.adder ~ripple:true ~stage:0.8 ~flat:0.9 ~area:13.0 ~power:10.0
      ~gates:20.0 "E_ADD4" 4;
    Defs.adder ~ripple:false ~stage:0.55 ~flat:1.5 ~area:18.0 ~power:14.5
      ~gates:28.0 "E_ADD4CLA" 4;
    Defs.comparator ~delay:1.2 ~area:3.4 ~power:2.6 ~gates:6.0 "E_CMP2" 2;
    Defs.comparator ~delay:1.8 ~area:6.8 ~power:5.0 ~gates:12.0 "E_CMP4" 4;
    Defs.counter ~delay:1.4 ~area:6.6 ~power:5.6 ~gates:14.0 "E_CNT2" 2;
    Defs.counter ~delay:1.4 ~area:11.5 ~power:10.0 ~gates:28.0 "E_CNT4" 4;
  ]

let registers =
  let d = Defs.dff in
  [
    d ~delay:1.1 ~area:2.6 ~power:2.2 ~gates:4.0 "E_DFF";
    d ~has_reset:true ~delay:1.1 ~area:2.9 ~power:2.4 ~gates:4.5 "E_DFF_R";
    d ~has_set:true ~delay:1.1 ~area:2.9 ~power:2.4 ~gates:4.5 "E_DFF_S";
    d ~has_set:true ~has_reset:true ~delay:1.2 ~area:3.2 ~power:2.6 ~gates:5.0
      "E_DFF_SR";
    d ~has_enable:true ~delay:1.1 ~area:3.1 ~power:2.5 ~gates:5.0 "E_DFF_E";
    d ~has_reset:true ~has_enable:true ~delay:1.2 ~area:3.4 ~power:2.7
      ~gates:5.5 "E_DFF_RE";
    d ~inverting:true ~delay:1.1 ~area:2.6 ~power:2.2 ~gates:4.0 "E_DFFN";
    d ~inverting:true ~has_reset:true ~delay:1.1 ~area:2.9 ~power:2.4
      ~gates:4.5 "E_DFFN_R";
    d ~latch:true ~delay:0.8 ~area:1.9 ~power:1.7 ~gates:3.0 "E_DLATCH";
    d ~latch:true ~has_reset:true ~delay:0.8 ~area:2.2 ~power:1.9 ~gates:3.5
      "E_DLATCH_R";
    (* Mux + flip-flop merges: cheaper than the discrete pair
       (E_MUX2 + E_DFF = 4.4 cells vs 3.5; E_MUX4 + E_DFF = 6.4 vs 5.2). *)
    d ~data:(Macro.Muxed 2) ~delay:1.25 ~area:3.5 ~power:3.0 ~gates:6.5
      "E_MUXFF2";
    d ~data:(Macro.Muxed 2) ~has_reset:true ~delay:1.25 ~area:3.8 ~power:3.2
      ~gates:7.0 "E_MUXFF2_R";
    d ~data:(Macro.Muxed 4) ~delay:1.4 ~area:5.2 ~power:4.2 ~gates:10.0
      "E_MUXFF4";
    d ~data:(Macro.Muxed 4) ~has_reset:true ~delay:1.4 ~area:5.5 ~power:4.4
      ~gates:10.5 "E_MUXFF4_R";
  ]

let macros = or_nor @ and_nand @ misc_gates @ complex @ msi @ registers
let get = Technology.once (fun () -> Technology.create "ecl" macros)

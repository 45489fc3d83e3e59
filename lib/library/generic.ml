(* The generic component library of the paper's Figure 13:

     AND/OR/NAND/NOR/XOR/XNOR 2,3,4; INV; BUF; VDD; VSS;
     MUX 2:1 and 4:1; DECODER 1:2 and 2:4;
     ADDER 1-bit, 4-bit, 4-bit carry-lookahead;
     COMPARATOR 2-bit and 4-bit;
     COUNTER 2- and 4-bit with up/down/reset/load/enable;
     REGISTER 1-bit with inverting/noninverting/set/reset/
       edge-triggered/level-sensitive variants.

   Delay/area/power are nominal technology-independent values used for
   early microarchitecture estimates. *)

module T = Milo_netlist.Types

let simple_gates =
  let g = Defs.gate in
  let sized fn base_delay base_area =
    List.map
      (fun n ->
        let fl = float_of_int (n - 2) in
        g
          ~delay:(base_delay +. (0.12 *. fl))
          ~area:(base_area +. (0.5 *. fl))
          ~power:(1.0 +. (0.25 *. fl))
          ~gates:(float_of_int (n - 1))
          (Printf.sprintf "%s%d" (T.gate_fn_name fn) n)
          fn n)
      [ 2; 3; 4 ]
  in
  let xors fn =
    List.map
      (fun n ->
        let fl = float_of_int (n - 2) in
        g
          ~delay:(1.4 +. (0.5 *. fl))
          ~area:(2.5 +. (1.8 *. fl))
          ~power:(1.5 +. (0.7 *. fl))
          ~gates:(float_of_int (3 * (n - 1)))
          (Printf.sprintf "%s%d" (T.gate_fn_name fn) n)
          fn n)
      [ 2; 3; 4 ]
  in
  sized T.And 1.0 1.0 @ sized T.Or 1.0 1.0 @ sized T.Nand 0.7 1.0
  @ sized T.Nor 0.7 1.0 @ xors T.Xor @ xors T.Xnor
  @ [
      g ~delay:0.4 ~area:0.5 ~power:0.5 ~gates:0.5 "INV" T.Inv 1;
      g ~delay:0.5 ~area:0.5 ~power:0.5 ~gates:0.5 "BUF" T.Buf 1;
      Defs.constant "VDD" true;
      Defs.constant "VSS" false;
    ]

let msi =
  [
    Defs.mux ~delay:1.2 ~area:2.0 ~power:1.4 ~gates:3.0 "MUX2" 2;
    Defs.mux ~delay:1.8 ~area:4.5 ~power:2.6 ~gates:7.0 "MUX4" 4;
    Defs.decoder ~delay:0.8 ~area:1.5 ~power:1.0 ~gates:2.0 "DEC1x2" 1 false;
    Defs.decoder ~delay:1.5 ~area:4.0 ~power:2.2 ~gates:6.0 "DEC2x4" 2 false;
    Defs.decoder ~delay:1.6 ~area:4.8 ~power:2.5 ~gates:8.0 "DEC2x4E" 2 true;
    Defs.full_adder ~delay:2.0 ~area:4.0 ~power:2.4 ~gates:5.0 "ADD1";
    Defs.adder ~ripple:true ~stage:1.1 ~flat:1.2 ~area:16.0 ~power:9.0
      ~gates:20.0 "ADD4" 4;
    Defs.adder ~ripple:false ~stage:0.8 ~flat:2.0 ~area:22.0 ~power:13.0
      ~gates:28.0 "ADD4CLA" 4;
    Defs.comparator ~delay:1.6 ~area:4.0 ~power:2.4 ~gates:6.0 "CMP2" 2;
    Defs.comparator ~delay:2.4 ~area:8.0 ~power:4.6 ~gates:12.0 "CMP4" 4;
    Defs.counter ~delay:1.8 ~area:8.0 ~power:5.0 ~gates:14.0 "CNT2" 2;
    Defs.counter ~delay:1.8 ~area:14.0 ~power:9.0 ~gates:28.0 "CNT4" 4;
  ]

let registers =
  let d = Defs.dff in
  [
    d ~delay:1.5 ~area:3.0 ~power:2.0 ~gates:4.0 "DFF";
    d ~has_reset:true ~delay:1.5 ~area:3.4 ~power:2.2 ~gates:4.5 "DFF_R";
    d ~has_set:true ~delay:1.5 ~area:3.4 ~power:2.2 ~gates:4.5 "DFF_S";
    d ~has_set:true ~has_reset:true ~delay:1.6 ~area:3.8 ~power:2.4 ~gates:5.0
      "DFF_SR";
    d ~has_enable:true ~delay:1.5 ~area:3.6 ~power:2.3 ~gates:5.0 "DFF_E";
    d ~has_reset:true ~has_enable:true ~delay:1.6 ~area:4.0 ~power:2.5
      ~gates:5.5 "DFF_RE";
    d ~inverting:true ~delay:1.5 ~area:3.0 ~power:2.0 ~gates:4.0 "DFFN";
    d ~inverting:true ~has_reset:true ~delay:1.5 ~area:3.4 ~power:2.2
      ~gates:4.5 "DFFN_R";
    d ~latch:true ~delay:1.0 ~area:2.2 ~power:1.5 ~gates:3.0 "DLATCH";
    d ~latch:true ~has_reset:true ~delay:1.0 ~area:2.6 ~power:1.7 ~gates:3.5
      "DLATCH_R";
    d ~data:(Macro.Muxed 2) ~delay:1.7 ~area:4.2 ~power:2.8 ~gates:6.5
      "MUXFF2";
    d ~data:(Macro.Muxed 2) ~has_reset:true ~delay:1.7 ~area:4.6 ~power:3.0
      ~gates:7.0 "MUXFF2_R";
    d ~data:(Macro.Muxed 4) ~delay:1.9 ~area:6.2 ~power:3.8 ~gates:10.0
      "MUXFF4";
    d ~data:(Macro.Muxed 4) ~has_reset:true ~delay:1.9 ~area:6.6 ~power:4.0
      ~gates:10.5 "MUXFF4_R";
  ]

let macros = simple_gates @ msi @ registers
let get = Technology.once (fun () -> Technology.create "generic" macros)

(* A synthetic CMOS standard-cell library.  CMOS characteristics:
   NAND/NOR (and AND-OR-invert) are the native gates; no high-power
   variants (strategy 2 is "only applicable to ECL logic"). *)

module T = Milo_netlist.Types
open Milo_boolfunc

let nands =
  List.map
    (fun n ->
      let fl = float_of_int (n - 2) in
      Defs.gate
        ~delay:(0.5 +. (0.12 *. fl))
        ~area:(1.0 +. (0.4 *. fl))
        ~power:(0.7 +. (0.2 *. fl))
        ~gates:(float_of_int (n - 1))
        (Printf.sprintf "C_NAND%d" n) T.Nand n)
    [ 2; 3; 4 ]

let nors =
  List.map
    (fun n ->
      let fl = float_of_int (n - 2) in
      Defs.gate
        ~delay:(0.6 +. (0.15 *. fl))
        ~area:(1.0 +. (0.4 *. fl))
        ~power:(0.7 +. (0.2 *. fl))
        ~gates:(float_of_int (n - 1))
        (Printf.sprintf "C_NOR%d" n) T.Nor n)
    [ 2; 3 ]

let ands_ors =
  List.concat_map
    (fun n ->
      let fl = float_of_int (n - 2) in
      [
        Defs.gate
          ~delay:(0.8 +. (0.12 *. fl))
          ~area:(1.3 +. (0.4 *. fl))
          ~power:(0.8 +. (0.2 *. fl))
          ~gates:(float_of_int (n - 1))
          (Printf.sprintf "C_AND%d" n) T.And n;
        Defs.gate
          ~delay:(0.85 +. (0.15 *. fl))
          ~area:(1.3 +. (0.4 *. fl))
          ~power:(0.8 +. (0.2 *. fl))
          ~gates:(float_of_int (n - 1))
          (Printf.sprintf "C_OR%d" n) T.Or n;
      ])
    [ 2; 3 ]

let misc =
  [
    Defs.gate ~delay:0.3 ~area:0.5 ~power:0.3 ~gates:0.5 "C_INV" T.Inv 1;
    Defs.gate ~delay:0.45 ~area:0.6 ~power:0.4 ~gates:0.5 "C_BUF" T.Buf 1;
    Defs.gate ~delay:1.0 ~area:2.2 ~power:1.2 ~gates:3.0 "C_XOR2" T.Xor 2;
    Defs.gate ~delay:1.0 ~area:2.2 ~power:1.2 ~gates:3.0 "C_XNOR2" T.Xnor 2;
    Defs.constant "C_VDD" true;
    Defs.constant "C_VSS" false;
  ]

let complex =
  [
    Macro.make ~delay:0.6 ~area:1.2 ~power:0.9 ~gates:2.0
      ~symmetric:[ [ "A"; "B" ] ] "C_AOI21"
      [ ("A", T.Input); ("B", T.Input); ("C", T.Input); ("Y", T.Output) ]
      (Macro.Combinational
         [ ( "Y",
             Truth_table.of_fun 3 (fun a -> not ((a.(0) && a.(1)) || a.(2))) )
         ]);
    Macro.make ~delay:0.6 ~area:1.2 ~power:0.9 ~gates:2.0
      ~symmetric:[ [ "A"; "B" ] ] "C_OAI21"
      [ ("A", T.Input); ("B", T.Input); ("C", T.Input); ("Y", T.Output) ]
      (Macro.Combinational
         [ ( "Y",
             Truth_table.of_fun 3 (fun a -> not ((a.(0) || a.(1)) && a.(2))) )
         ]);
    Macro.make ~delay:0.7 ~area:1.6 ~power:1.1 ~gates:3.0
      ~symmetric:[ [ "A"; "B" ]; [ "C"; "D" ] ] "C_AOI22"
      [ ("A", T.Input); ("B", T.Input); ("C", T.Input); ("D", T.Input);
        ("Y", T.Output) ]
      (Macro.Combinational
         [ ( "Y",
             Truth_table.of_fun 4 (fun a ->
                 not ((a.(0) && a.(1)) || (a.(2) && a.(3)))) ) ]);
  ]

let msi =
  [
    Defs.mux ~delay:0.8 ~area:1.9 ~power:1.1 ~gates:3.0 "C_MUX2" 2;
    Defs.mux ~delay:1.2 ~area:4.0 ~power:2.0 ~gates:7.0 "C_MUX4" 4;
    Defs.decoder ~delay:1.0 ~area:3.6 ~power:1.8 ~gates:6.0 "C_DEC2x4" 2 false;
    Defs.decoder ~delay:0.55 ~area:1.3 ~power:0.8 ~gates:2.0 "C_DEC1x2" 1
      false;
    Defs.full_adder ~delay:1.4 ~area:3.6 ~power:1.9 ~gates:5.0 "C_ADD1";
    Defs.adder ~ripple:true ~stage:0.75 ~flat:0.85 ~area:14.0 ~power:7.0
      ~gates:20.0 "C_ADD4" 4;
    Defs.adder ~ripple:false ~stage:0.5 ~flat:1.4 ~area:19.5 ~power:10.0
      ~gates:28.0 "C_ADD4CLA" 4;
    Defs.comparator ~delay:1.1 ~area:3.6 ~power:1.9 ~gates:6.0 "C_CMP2" 2;
    Defs.comparator ~delay:1.7 ~area:7.2 ~power:3.6 ~gates:12.0 "C_CMP4" 4;
    Defs.counter ~delay:1.3 ~area:7.0 ~power:4.0 ~gates:14.0 "C_CNT2" 2;
    Defs.counter ~delay:1.3 ~area:12.2 ~power:7.2 ~gates:28.0 "C_CNT4" 4;
  ]

let registers =
  let d = Defs.dff in
  [
    d ~delay:1.0 ~area:2.8 ~power:1.6 ~gates:4.0 "C_DFF";
    d ~has_reset:true ~delay:1.0 ~area:3.1 ~power:1.7 ~gates:4.5 "C_DFF_R";
    d ~has_set:true ~delay:1.0 ~area:3.1 ~power:1.7 ~gates:4.5 "C_DFF_S";
    d ~has_set:true ~has_reset:true ~delay:1.1 ~area:3.4 ~power:1.8 ~gates:5.0
      "C_DFF_SR";
    d ~has_enable:true ~delay:1.0 ~area:3.3 ~power:1.8 ~gates:5.0 "C_DFF_E";
    d ~has_reset:true ~has_enable:true ~delay:1.1 ~area:3.6 ~power:1.9
      ~gates:5.5 "C_DFF_RE";
    d ~inverting:true ~delay:1.0 ~area:2.8 ~power:1.6 ~gates:4.0 "C_DFFN";
    d ~inverting:true ~has_reset:true ~delay:1.0 ~area:3.1 ~power:1.7
      ~gates:4.5 "C_DFFN_R";
    d ~latch:true ~delay:0.7 ~area:2.0 ~power:1.2 ~gates:3.0 "C_DLATCH";
    d ~latch:true ~has_reset:true ~delay:0.7 ~area:2.3 ~power:1.3 ~gates:3.5
      "C_DLATCH_R";
    d ~data:(Macro.Muxed 2) ~delay:1.15 ~area:3.9 ~power:2.2 ~gates:6.5
      "C_MUXFF2";
    d ~data:(Macro.Muxed 2) ~has_reset:true ~delay:1.15 ~area:4.2 ~power:2.3
      ~gates:7.0 "C_MUXFF2_R";
    d ~data:(Macro.Muxed 4) ~delay:1.3 ~area:5.8 ~power:3.0 ~gates:10.0
      "C_MUXFF4";
    d ~data:(Macro.Muxed 4) ~has_reset:true ~delay:1.3 ~area:6.1 ~power:3.1
      ~gates:10.5 "C_MUXFF4_R";
  ]

let macros = nands @ nors @ ands_ors @ misc @ complex @ msi @ registers
let get = Technology.once (fun () -> Technology.create "cmos" macros)

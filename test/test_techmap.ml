(* Technology mapper tests: the lookup-table mapper and the DAGON
   tree-covering baseline both preserve function on both targets. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

let kinds =
  [
    T.Gate (T.Xnor, 4);
    T.Gate (T.And, 4);
    T.Multiplexor { bits = 2; inputs = 4; enable = true };
    T.Decoder { bits = 3; enable = true };
    T.Comparator { bits = 4; fns = [ T.Eq; T.Lt; T.Gt ] };
    T.Arith_unit { bits = 6; fns = [ T.Add; T.Sub ]; mode = T.Ripple };
    T.Arith_unit { bits = 4; fns = [ T.Add ]; mode = T.Lookahead };
  ]

let seq_kinds =
  [
    T.Register
      { bits = 4; kind = T.Edge_triggered; fns = [ T.Load; T.Shift_left ];
        controls = [ T.Reset; T.Enable ]; inverting = false };
    T.Counter
      { bits = 6; fns = [ T.Count_load; T.Count_up ]; controls = [ T.Reset ] };
  ]

let check_map target env_t kind ~seq =
  let flat = Util.compile_flat kind in
  let mapped = Milo_techmap.Table_map.map_design target flat in
  let r =
    if seq then
      Milo_sim.Equiv.sequential ~cycles:48 ~runs:3 (Util.env_gen ())
        (Util.micro_reference kind) env_t mapped
    else
      Milo_sim.Equiv.combinational (Util.env_gen ())
        (Util.micro_reference kind) env_t mapped
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s on %s" (T.kind_name kind)
       (Milo_library.Technology.name target.Milo_techmap.Table_map.tech))
    true
    (Milo_sim.Equiv.is_equivalent r)

let test_table_map_ecl () =
  let target = Milo_techmap.Table_map.ecl_target () in
  List.iter (fun k -> check_map target (Util.env_ecl ()) k ~seq:false) kinds;
  List.iter (fun k -> check_map target (Util.env_ecl ()) k ~seq:true) seq_kinds

let test_table_map_cmos () =
  let target = Milo_techmap.Table_map.cmos_target () in
  List.iter (fun k -> check_map target (Util.env_cmos ()) k ~seq:false) kinds;
  List.iter (fun k -> check_map target (Util.env_cmos ()) k ~seq:true) seq_kinds

let test_map_rejects_hierarchy () =
  let db = Milo_compilers.Database.create () in
  let lib = Util.generic () in
  let d =
    Milo_compilers.Compile.compile db lib
      (T.Multiplexor { bits = 4; inputs = 2; enable = false })
  in
  let target = Milo_techmap.Table_map.ecl_target () in
  Alcotest.(check bool) "raises on hierarchy" true
    (match Milo_techmap.Table_map.map_design target d with
    | _ -> false
    | exception Milo_techmap.Table_map.Unmappable _ -> true);
  (* keep_instances tolerates it *)
  let kept = Milo_techmap.Table_map.map_design ~keep_instances:true target d in
  Alcotest.(check bool) "instances kept" true
    (List.exists
       (fun (c : D.comp) ->
         match c.D.kind with T.Instance _ -> true | _ -> false)
       (D.comps kept))

let test_parse_gate_name () =
  let open Milo_techmap.Table_map in
  Alcotest.(check bool) "NAND3" true (parse_gate_name "NAND3" = Some (T.Nand, 3));
  Alcotest.(check bool) "AND2" true (parse_gate_name "AND2" = Some (T.And, 2));
  Alcotest.(check bool) "XNOR4" true (parse_gate_name "XNOR4" = Some (T.Xnor, 4));
  Alcotest.(check bool) "INV" true (parse_gate_name "INV" = Some (T.Inv, 1));
  Alcotest.(check bool) "MUX2 is not a gate" true (parse_gate_name "MUX2" = None);
  Alcotest.(check bool) "DFF is not a gate" true (parse_gate_name "DFF" = None)

let test_dagon_equiv_random () =
  let env name = Milo_library.Technology.find (Util.generic ()) name in
  List.iter
    (fun seed ->
      let d = Milo_designs.Workload.random_logic ~gates:40 ~seed () in
      let target = Milo_techmap.Table_map.ecl_target () in
      let mapped = Milo_techmap.Dagon.map_design target env d in
      let r = Milo_sim.Equiv.combinational (Util.env_gen ()) d (Util.env_ecl ()) mapped in
      Alcotest.(check bool)
        (Printf.sprintf "dagon seed %d" seed)
        true
        (Milo_sim.Equiv.is_equivalent r))
    [ 1; 2; 3; 7; 42 ]

let test_dagon_vs_table_on_msi () =
  (* The table mapper keeps the MUX4 macros; DAGON re-covers the logic
     from gate patterns and cannot rebuild a 6-input macro — MILO's
     high-level-macros argument (Section 6.4). *)
  let d = Milo_designs.Workload.msi_rich () in
  let env name = Milo_library.Technology.find (Util.generic ()) name in
  let target = Milo_techmap.Table_map.ecl_target () in
  let table = Milo_techmap.Table_map.map_design target d in
  let dagon = Milo_techmap.Dagon.map_design target env d in
  let tech_env name = Milo_library.Technology.find (Util.ecl ()) name in
  let area dd = Milo_estimate.Estimate.area tech_env dd in
  Alcotest.(check bool) "both equivalent to source" true
    (Milo_sim.Equiv.is_equivalent
       (Milo_sim.Equiv.combinational (Util.env_gen ()) d (Util.env_ecl ()) table)
    && Milo_sim.Equiv.is_equivalent
         (Milo_sim.Equiv.combinational (Util.env_gen ()) d (Util.env_ecl ()) dagon));
  Alcotest.(check bool)
    (Printf.sprintf "table (%.1f) beats dagon (%.1f) on MSI-rich logic"
       (area table) (area dagon))
    true
    (area table < area dagon)

let test_dagon_structure () =
  let env name = Milo_library.Technology.find (Util.generic ()) name in
  let d = Milo_designs.Workload.random_logic ~gates:30 ~seed:5 () in
  let target = Milo_techmap.Table_map.cmos_target () in
  let mapped = Milo_techmap.Dagon.map_design target env d in
  (* all components are CMOS macros *)
  List.iter
    (fun (c : D.comp) ->
      match c.D.kind with
      | T.Macro m ->
          Alcotest.(check bool) (m ^ " in CMOS lib") true
            (Milo_library.Technology.mem (Util.cmos ()) m)
      | k -> Alcotest.failf "unexpected kind %s" (T.kind_name k))
    (D.comps mapped)

let () =
  Alcotest.run "techmap"
    [
      ( "table-map",
        [
          Alcotest.test_case "to ECL" `Slow test_table_map_ecl;
          Alcotest.test_case "to CMOS" `Slow test_table_map_cmos;
          Alcotest.test_case "hierarchy handling" `Quick test_map_rejects_hierarchy;
          Alcotest.test_case "gate-name parser" `Quick test_parse_gate_name;
        ] );
      ( "dagon",
        [
          Alcotest.test_case "equivalence on random logic" `Slow
            test_dagon_equiv_random;
          Alcotest.test_case "table beats dagon on MSI" `Quick
            test_dagon_vs_table_on_msi;
          Alcotest.test_case "mapped structure" `Quick test_dagon_structure;
        ] );
    ]

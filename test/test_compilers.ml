(* Logic compiler tests: every compiled component matches its
   behavioural semantics, the database caches and flattens correctly,
   gate trees respect available arities. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

let check_comb kind =
  let flat = Util.compile_flat kind in
  Util.check_equiv (Util.env_gen ()) (Util.micro_reference kind)
    (Util.env_gen ()) flat

let check_seq kind =
  let flat = Util.compile_flat kind in
  Util.check_equiv ~seq:true (Util.env_gen ()) (Util.micro_reference kind)
    (Util.env_gen ()) flat

let test_gates () =
  List.iter
    (fun fn ->
      List.iter (fun n -> check_comb (T.Gate (fn, n))) [ 1; 2; 3; 5; 9 ])
    [ T.And; T.Or; T.Nand; T.Nor; T.Xor; T.Xnor ];
  check_comb (T.Gate (T.Inv, 1));
  check_comb (T.Gate (T.Buf, 1))

let test_muxes () =
  List.iter
    (fun (bits, inputs, enable) ->
      check_comb (T.Multiplexor { bits; inputs; enable }))
    [ (1, 2, false); (1, 3, false); (1, 4, true); (1, 5, false); (1, 8, false);
      (1, 16, false); (2, 2, false); (4, 4, true); (3, 6, false) ]

let test_decoders () =
  List.iter
    (fun (bits, enable) -> check_comb (T.Decoder { bits; enable }))
    [ (1, false); (1, true); (2, false); (2, true); (3, false); (4, true) ]

let test_comparators () =
  List.iter
    (fun (bits, fns) -> check_comb (T.Comparator { bits; fns }))
    [
      (1, [ T.Eq ]);
      (2, [ T.Eq; T.Ne ]);
      (3, [ T.Lt; T.Gt ]);
      (4, [ T.Eq; T.Lt; T.Gt; T.Le; T.Ge; T.Ne ]);
      (5, [ T.Le ]);
      (8, [ T.Eq; T.Lt ]);
    ]

let test_logic_units () =
  List.iter
    (fun (bits, fn, inputs) -> check_comb (T.Logic_unit { bits; fn; inputs }))
    [ (1, T.And, 2); (4, T.Or, 2); (2, T.Xor, 3); (3, T.Nand, 2); (2, T.Inv, 1) ]

let test_arith_units () =
  List.iter
    (fun (bits, fns, mode) -> check_comb (T.Arith_unit { bits; fns; mode }))
    [
      (1, [ T.Add ], T.Ripple);
      (4, [ T.Add ], T.Ripple);
      (4, [ T.Add ], T.Lookahead);
      (5, [ T.Sub ], T.Ripple);
      (8, [ T.Add; T.Sub ], T.Lookahead);
      (3, [ T.Inc ], T.Ripple);
      (6, [ T.Dec ], T.Ripple);
      (4, [ T.Add; T.Sub; T.Inc; T.Dec ], T.Ripple);
      (2, [ T.Inc; T.Dec ], T.Ripple);
    ]

let test_registers () =
  List.iter
    (fun (bits, kind, fns, controls, inverting) ->
      check_seq (T.Register { bits; kind; fns; controls; inverting }))
    [
      (1, T.Edge_triggered, [ T.Load ], [], false);
      (4, T.Edge_triggered, [ T.Load ], [ T.Reset ], false);
      (4, T.Edge_triggered, [ T.Load ], [ T.Set; T.Reset ], false);
      (3, T.Edge_triggered, [ T.Load ], [ T.Enable ], false);
      (3, T.Edge_triggered, [ T.Load ], [ T.Set; T.Reset; T.Enable ], false);
      (4, T.Edge_triggered, [ T.Load; T.Shift_right ], [ T.Reset ], false);
      (4, T.Edge_triggered, [ T.Load; T.Shift_left ], [], false);
      (5, T.Edge_triggered, [ T.Load; T.Shift_left; T.Shift_right ], [ T.Reset ], false);
      (2, T.Edge_triggered, [ T.Shift_right ], [ T.Reset ], false);
      (4, T.Edge_triggered, [ T.Load ], [ T.Reset ], true);
      (2, T.Latch, [ T.Load ], [ T.Reset ], false);
      (2, T.Latch, [ T.Load ], [ T.Set; T.Reset ], false);
    ]

let test_counters () =
  List.iter
    (fun (bits, fns, controls) -> check_seq (T.Counter { bits; fns; controls }))
    [
      (2, [ T.Count_up ], [ T.Reset ]);
      (4, [ T.Count_up ], [ T.Reset ]);
      (4, [ T.Count_down ], [ T.Reset ]);
      (3, [ T.Count_up ], [ T.Reset; T.Enable ]);
      (4, [ T.Count_load; T.Count_up ], [ T.Reset ]);
      (5, [ T.Count_load; T.Count_up; T.Count_down ], [ T.Reset; T.Enable ]);
      (6, [ T.Count_up; T.Count_down ], [ T.Reset ]);
      (7, [ T.Count_load; T.Count_up; T.Count_down ], [ T.Set; T.Reset; T.Enable ]);
      (1, [ T.Count_up ], [ T.Reset ]);
    ]

let test_database_caching () =
  let db = Milo_compilers.Database.create () in
  let lib = Util.generic () in
  let kind = T.Multiplexor { bits = 4; inputs = 2; enable = false } in
  let n1 = Milo_compilers.Compile.compile_kind db lib kind in
  let count = List.length (Milo_compilers.Database.names db) in
  let n2 = Milo_compilers.Compile.compile_kind db lib kind in
  Alcotest.(check string) "same name" n1 n2;
  Alcotest.(check int) "no new designs" count
    (List.length (Milo_compilers.Database.names db));
  (* the multi-bit mux registered its single-bit sub-design *)
  Alcotest.(check bool) "hierarchy registered" true
    (Milo_compilers.Database.mem db
       (T.kind_name (T.Multiplexor { bits = 1; inputs = 2; enable = false })))

let test_register_calls_mux_compiler () =
  (* The Figure 16 hierarchy: REG4 with load+shift contains MUX2:1:1
     instances. *)
  let db = Milo_compilers.Database.create () in
  let lib = Util.generic () in
  let kind =
    T.Register
      { bits = 4; kind = T.Edge_triggered; fns = [ T.Load; T.Shift_right ];
        controls = []; inverting = false }
  in
  let d = Milo_compilers.Compile.compile db lib kind in
  let has_mux_instance =
    List.exists
      (fun (c : D.comp) ->
        match c.D.kind with
        | T.Instance name ->
            name = T.kind_name (T.Multiplexor { bits = 1; inputs = 2; enable = false })
        | _ -> false)
      (D.comps d)
  in
  Alcotest.(check bool) "REG4 instantiates MUX2:1:1" true has_mux_instance

let test_flatten_equiv () =
  (* Hierarchical and flattened designs simulate identically. *)
  let db = Milo_compilers.Database.create () in
  let lib = Util.generic () in
  let case = Milo_designs.Suite.design6 () in
  let expanded =
    Milo_compilers.Compile.expand_design db lib case.Milo_designs.Suite.case_design
  in
  let flat = Milo_compilers.Database.flatten db expanded in
  (* flat design has no instances *)
  Alcotest.(check bool) "no instances" true
    (List.for_all
       (fun (c : D.comp) ->
         match c.D.kind with T.Instance _ -> false | _ -> true)
       (D.comps flat));
  Util.check_equiv ~seq:true (Util.env_gen ())
    case.Milo_designs.Suite.case_design (Util.env_gen ()) flat

let test_compiled_design_checks () =
  (* Structural validity of compiled designs. *)
  let db = Milo_compilers.Database.create () in
  let lib = Util.generic () in
  let resolve = Milo_compilers.Database.resolver db [ lib ] in
  List.iter
    (fun kind ->
      let d = Milo_compilers.Compile.compile_flat db lib kind in
      match Milo_lint.Lint.check ~resolve d with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s: %s" (T.kind_name kind) (String.concat "; " msgs))
    [
      T.Gate (T.Nand, 6);
      T.Multiplexor { bits = 2; inputs = 4; enable = true };
      T.Arith_unit { bits = 7; fns = [ T.Add; T.Sub ]; mode = T.Ripple };
      T.Counter { bits = 5; fns = [ T.Count_up ]; controls = [ T.Reset ] };
    ]

let test_symbols () =
  let sym =
    Milo_compilers.Symbol.generate
      (T.Arith_unit { bits = 4; fns = [ T.Add ]; mode = T.Lookahead })
  in
  Alcotest.(check bool) "inputs on the left" true
    (List.mem "A0" sym.Milo_compilers.Symbol.left_pins);
  Alcotest.(check bool) "outputs on the right" true
    (List.mem "COUT" sym.Milo_compilers.Symbol.right_pins);
  Alcotest.(check bool) "render mentions name" true
    (String.length (Milo_compilers.Symbol.render sym) > 0)

(* Random parameter sweep: compile and verify against semantics. *)
let prop_random_kinds =
  let gen =
    QCheck2.Gen.(
      int_range 0 5 >>= fun which ->
      int_range 1 5 >>= fun bits ->
      int_bound 3 >>= fun extra ->
      return (which, bits, extra))
  in
  Util.qtest ~count:24 "random kinds compile correctly" gen
    (fun (which, bits, extra) ->
      let kind =
        match which with
        | 0 -> T.Gate (T.Nor, bits + 1)
        | 1 -> T.Multiplexor { bits; inputs = 2 + extra; enable = extra mod 2 = 0 }
        | 2 -> T.Decoder { bits = 1 + (bits mod 3); enable = extra mod 2 = 1 }
        | 3 -> T.Comparator { bits; fns = [ T.Eq; T.Gt ] }
        | 4 -> T.Arith_unit { bits; fns = [ T.Add; T.Sub ]; mode = T.Ripple }
        | _ -> T.Logic_unit { bits; fn = T.Xor; inputs = 2 + extra }
      in
      let flat = Util.compile_flat kind in
      Milo_sim.Equiv.is_equivalent
        (Milo_sim.Equiv.combinational (Util.env_gen ())
           (Util.micro_reference kind) (Util.env_gen ()) flat))

let () =
  Alcotest.run "compilers"
    [
      ( "combinational",
        [
          Alcotest.test_case "gates" `Quick test_gates;
          Alcotest.test_case "muxes" `Quick test_muxes;
          Alcotest.test_case "decoders" `Quick test_decoders;
          Alcotest.test_case "comparators" `Quick test_comparators;
          Alcotest.test_case "logic units" `Quick test_logic_units;
          Alcotest.test_case "arith units" `Quick test_arith_units;
          prop_random_kinds;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "registers" `Slow test_registers;
          Alcotest.test_case "counters" `Slow test_counters;
        ] );
      ( "database",
        [
          Alcotest.test_case "caching" `Quick test_database_caching;
          Alcotest.test_case "register calls mux compiler" `Quick
            test_register_calls_mux_compiler;
          Alcotest.test_case "flatten equivalence" `Quick test_flatten_equiv;
          Alcotest.test_case "structural checks" `Quick
            test_compiled_design_checks;
        ] );
      ("symbols", [ Alcotest.test_case "generate/render" `Quick test_symbols ]);
    ]

(* VHDL front-end tests: lexing, parsing, elaboration, equivalence of
   VHDL-entered designs against builder-entered ones, and the full flow
   from VHDL source. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

let timer_src =
  {|
-- an 8-bit timer, structurally
entity timer8 is
  port ( clk  : in bit;
         rst  : in bit;
         en   : in bit;
         lim  : in bit_vector(7 downto 0);
         q    : out bit_vector(7 downto 0);
         hit  : out bit );
end timer8;

architecture structural of timer8 is
  signal count : bit_vector(7 downto 0);
begin
  cnt0 : counter generic map (bits => 8, fns => "up", controls => "reset,enable")
         port map (clk => clk, rst => rst, en => en, q => count, cout => open);
  cmp0 : comparator generic map (bits => 8, fns => "eq")
         port map (a => count, b => lim, eq => hit);
  q <= count;
end structural;
|}

let alu_src =
  {|
entity alu4 is
  port ( a : in bit_vector(3 downto 0);
         b : in bit_vector(3 downto 0);
         f : in bit;
         cin : in bit;
         s : out bit_vector(3 downto 0);
         cout : out bit );
end alu4;

architecture rtl of alu4 is
begin
  u0 : arith_unit generic map (bits => 4, fns => "add,sub", mode => "ripple")
       port map (a => a, b => b, f => f, cin => cin, s => s, cout => cout);
end rtl;
|}

let gates_src =
  {|
entity gates is
  port ( a : in bit; b : in bit; c : in bit;
         x : out bit; y : out bit; z : out bit );
end gates;

architecture rtl of gates is
  signal t : bit;
begin
  t <= a and b;
  x <= t or c;
  y <= not t;
  z <= a xor b xor c;
end rtl;
|}

let test_parse_timer () =
  let u = Milo_vhdl.Parser.of_string timer_src in
  Alcotest.(check string) "entity name" "timer8" u.Milo_vhdl.Ast.entity_name;
  Alcotest.(check int) "ports" 6 (List.length u.Milo_vhdl.Ast.ports);
  Alcotest.(check int) "signals" 1
    (List.length u.Milo_vhdl.Ast.architecture.Milo_vhdl.Ast.signals);
  Alcotest.(check int) "statements" 3
    (List.length u.Milo_vhdl.Ast.architecture.Milo_vhdl.Ast.statements)

let test_elaborate_timer () =
  let d = Milo_vhdl.Elaborate.design_of_string timer_src in
  (* 8+8+1 vector bits plus scalars -> ports count as scalar bits *)
  Alcotest.(check int) "scalar ports" 20 (List.length (D.ports d));
  let cnt = D.find_comp d "cnt0" in
  (match cnt.D.kind with
  | T.Counter { bits = 8; fns = [ T.Count_up ]; controls } ->
      Alcotest.(check bool) "controls" true
        (List.mem T.Reset controls && List.mem T.Enable controls)
  | k -> Alcotest.failf "wrong kind %s" (T.kind_name k));
  let resolve kind nm =
    match kind with
    | T.Macro _ ->
        (Milo_library.Technology.find (Util.generic ()) nm).Milo_library.Macro.pins
    | _ -> T.pins_of_kind kind
  in
  match Milo_lint.Lint.check ~resolve d with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "check: %s" (String.concat "; " msgs)

let test_vhdl_equals_builder () =
  (* The VHDL ALU behaves exactly like the directly-built micro
     component. *)
  let vhdl = Milo_vhdl.Elaborate.design_of_string alu_src in
  let kind = T.Arith_unit { bits = 4; fns = [ T.Add; T.Sub ]; mode = T.Ripple } in
  let reference = Util.micro_reference kind in
  (* port names differ (a0 vs A0): compare through simulation with
     matching vectors *)
  let env = Util.env_gen () in
  let s1 = Milo_sim.Simulator.create env vhdl in
  let s2 = Milo_sim.Simulator.create env reference in
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 200 do
    let bits = List.init 4 (fun _ -> Random.State.bool rng) in
    let bits2 = List.init 4 (fun _ -> Random.State.bool rng) in
    let f = Random.State.bool rng and cin = Random.State.bool rng in
    let ins1 =
      List.mapi (fun i v -> (Printf.sprintf "a%d" i, v)) bits
      @ List.mapi (fun i v -> (Printf.sprintf "b%d" i, v)) bits2
      @ [ ("f", f); ("cin", cin) ]
    in
    let ins2 =
      List.mapi (fun i v -> (Printf.sprintf "A%d" i, v)) bits
      @ List.mapi (fun i v -> (Printf.sprintf "B%d" i, v)) bits2
      @ [ ("F0", f); ("CIN", cin) ]
    in
    let o1 = Milo_sim.Simulator.outputs s1 ins1 in
    let o2 = Milo_sim.Simulator.outputs s2 ins2 in
    List.iteri
      (fun i _ ->
        Alcotest.(check bool)
          (Printf.sprintf "s%d" i)
          (List.assoc (Printf.sprintf "S%d" i) o2)
          (List.assoc (Printf.sprintf "s%d" i) o1))
      bits;
    Alcotest.(check bool) "cout" (List.assoc "COUT" o2) (List.assoc "cout" o1)
  done

let test_gate_assignments () =
  let d = Milo_vhdl.Elaborate.design_of_string gates_src in
  let s = Milo_sim.Simulator.create (Util.env_gen ()) d in
  let check a b c (x, y, z) =
    let outs =
      Milo_sim.Simulator.outputs s [ ("a", a); ("b", b); ("c", c) ]
    in
    Alcotest.(check bool) "x" x (List.assoc "x" outs);
    Alcotest.(check bool) "y" y (List.assoc "y" outs);
    Alcotest.(check bool) "z" z (List.assoc "z" outs)
  in
  check true true false (true, false, false);
  check false false true (true, true, true);
  check true false false (false, true, true)

let test_vhdl_full_flow () =
  (* VHDL in, optimized ECL netlist out, behaviour preserved. *)
  let design = Milo_vhdl.Elaborate.design_of_string timer_src in
  let baseline, _ = Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl design in
  let res =
    Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
      ~constraints:(Milo.Constraints.delay 5.0) design
  in
  let env = Util.env_ecl () in
  Util.check_equiv ~seq:true env baseline env res.Milo.Flow.optimized

let test_parse_errors () =
  let bad src =
    match Milo_vhdl.Elaborate.design_of_string src with
    | _ -> None
    | exception Milo_vhdl.Parser.Parse_error (line, msg) ->
        Some (Printf.sprintf "parse:%d:%s" line msg)
    | exception Milo_vhdl.Elaborate.Elaboration_error msg ->
        Some ("elab:" ^ msg)
    | exception Milo_vhdl.Lexer.Lex_error (line, msg) ->
        Some (Printf.sprintf "lex:%d:%s" line msg)
  in
  Alcotest.(check bool) "missing entity" true
    (bad "architecture a of b is begin end;" <> None);
  Alcotest.(check bool) "bad component" true
    (bad
       "entity e is port (a : in bit); end e;\n\
        architecture r of e is begin u : warpdrive port map (a => a); end r;"
     <> None);
  Alcotest.(check bool) "width mismatch" true
    (bad
       "entity e is port (a : in bit_vector(3 downto 0); y : out bit); end e;\n\
        architecture r of e is begin y <= a; end r;"
     <> None);
  Alcotest.(check bool) "unknown signal" true
    (bad
       "entity e is port (y : out bit); end e;\n\
        architecture r of e is begin y <= nothere; end r;"
     <> None);
  Alcotest.(check bool) "bad char" true (bad "entity @ is" <> None);
  Alcotest.(check (option string)) "integer literal past max_int"
    (Some "lex:3:integer literal 99999999999999999999 out of range")
    (bad
       "entity e is port (a : in bit; y : out bit); end e;\n\
        architecture r of e is begin\n\
        u : counter generic map (bits => 99999999999999999999) port map (clk => a, q0 => y);\n\
        end r;")

let test_bit_string_msb_first () =
  let src =
    {|
entity lit is
  port ( q : out bit_vector(3 downto 0); c : out bit );
end lit;
architecture r of lit is
begin
  u : comparator generic map (bits => 4, fns => "eq")
      port map (a => "0011", b => "0011", eq => c);
  q <= "1000";
end r;
|}
  in
  let d = Milo_vhdl.Elaborate.design_of_string src in
  let s = Milo_sim.Simulator.create (Util.env_gen ()) d in
  let outs = Milo_sim.Simulator.outputs s [] in
  (* "1000" MSB first = bit 3 set *)
  Alcotest.(check bool) "q3" true (List.assoc "q3" outs);
  Alcotest.(check bool) "q0" false (List.assoc "q0" outs);
  Alcotest.(check bool) "eq of equal literals" true (List.assoc "c" outs)

let () =
  Alcotest.run "vhdl"
    [
      ( "parser",
        [
          Alcotest.test_case "timer" `Quick test_parse_timer;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "elaboration",
        [
          Alcotest.test_case "timer" `Quick test_elaborate_timer;
          Alcotest.test_case "alu equals builder" `Quick test_vhdl_equals_builder;
          Alcotest.test_case "gate assignments" `Quick test_gate_assignments;
          Alcotest.test_case "bit strings" `Quick test_bit_string_msb_first;
        ] );
      ( "flow",
        [ Alcotest.test_case "vhdl to optimized ECL" `Quick test_vhdl_full_flow ]
      );
    ]

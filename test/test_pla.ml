(* PLA and boolean-equation front-end tests. *)

module D = Milo_netlist.Design
open Milo_boolfunc

(* a full adder in PLA form *)
let full_adder_pla =
  {|
.i 3
.o 2
.ilb a b cin
.ob sum cout
001 10
010 10
100 10
111 10
11- 01
1-1 01
-11 01
.e
|}

let test_parse () =
  let pla = Milo_pla.Pla.of_string full_adder_pla in
  Alcotest.(check (list string)) "inputs" [ "a"; "b"; "cin" ] pla.Milo_pla.Pla.inputs;
  Alcotest.(check (list string)) "outputs" [ "sum"; "cout" ] pla.Milo_pla.Pla.outputs;
  (match pla.Milo_pla.Pla.covers with
  | [ sum; cout ] ->
      Alcotest.(check int) "sum cubes" 4 (Cover.size sum);
      Alcotest.(check int) "cout cubes" 3 (Cover.size cout)
  | _ -> Alcotest.fail "expected two covers")

let test_design_behaviour () =
  let pla = Milo_pla.Pla.of_string full_adder_pla in
  let d = Milo_pla.Pla.to_design ~name:"fa" pla in
  let s = Milo_sim.Simulator.create (Util.env_gen ()) d in
  for m = 0 to 7 do
    let a = m land 1 <> 0 and b = m land 2 <> 0 and cin = m land 4 <> 0 in
    let outs =
      Milo_sim.Simulator.outputs s [ ("a", a); ("b", b); ("cin", cin) ]
    in
    let total = (if a then 1 else 0) + (if b then 1 else 0) + if cin then 1 else 0 in
    Alcotest.(check bool) "sum" (total land 1 = 1) (List.assoc "sum" outs);
    Alcotest.(check bool) "cout" (total >= 2) (List.assoc "cout" outs)
  done

let test_roundtrip () =
  let pla = Milo_pla.Pla.of_string full_adder_pla in
  let pla2 = Milo_pla.Pla.of_string (Milo_pla.Pla.to_string pla) in
  List.iter2
    (fun c1 c2 ->
      Alcotest.(check bool) "equivalent covers" true (Cover.equivalent c1 c2))
    pla.Milo_pla.Pla.covers pla2.Milo_pla.Pla.covers

let test_pla_errors () =
  let bad src =
    match Milo_pla.Pla.of_string src with
    | _ -> false
    | exception Milo_pla.Pla.Pla_error (_, _) -> true
  in
  Alcotest.(check bool) "missing .i" true (bad "10 1\n");
  Alcotest.(check bool) "bad width" true (bad ".i 2\n.o 1\n101 1\n");
  Alcotest.(check bool) "bad char" true (bad ".i 2\n.o 1\n1z 1\n");
  Alcotest.(check bool) "bad directive" true (bad ".i 2\n.o 1\n.frob\n11 1\n");
  let error_at src =
    match Milo_pla.Pla.of_string src with
    | _ -> None
    | exception Milo_pla.Pla.Pla_error (line, msg) -> Some (line, msg)
  in
  Alcotest.(check (option (pair int string))) "non-numeric .i"
    (Some (1, "bad .i count x"))
    (error_at ".i x\n.o 2\n001 10\n.e\n");
  Alcotest.(check (option (pair int string))) "negative .o"
    (Some (2, "bad .o count -2"))
    (error_at ".i 3\n.o -2\n001 10\n.e\n");
  Alcotest.(check (option (pair int string))) ".o past max_int"
    (Some (2, "bad .o count 99999999999999999999"))
    (error_at ".i 3\n.o 99999999999999999999\n")

let test_pla_through_flow () =
  (* PLA in, optimized ECL out, function preserved. *)
  let pla = Milo_pla.Pla.of_string full_adder_pla in
  let design = Milo_pla.Pla.to_design ~name:"fa_flow" pla in
  let baseline, _ = Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl design in
  let res =
    Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
      ~constraints:(Milo.Constraints.delay 3.0) design
  in
  Util.check_equiv (Util.env_ecl ()) baseline (Util.env_ecl ())
    res.Milo.Flow.optimized

(* --- boolean equations ------------------------------------------------ *)

let test_equations_behaviour () =
  let src =
    {|
# a 2:1 mux plus parity
pick   = s & b | !s & a;
parity = a ^ b ^ s;
both   = pick & parity;
|}
  in
  let d = Milo_pla.Equations.to_design src in
  let s = Milo_sim.Simulator.create (Util.env_gen ()) d in
  for m = 0 to 7 do
    let a = m land 1 <> 0 and b = m land 2 <> 0 and sel = m land 4 <> 0 in
    let outs = Milo_sim.Simulator.outputs s [ ("a", a); ("b", b); ("s", sel) ] in
    let pick = if sel then b else a in
    let parity = a <> b <> sel in
    Alcotest.(check bool) "pick" pick (List.assoc "pick" outs);
    Alcotest.(check bool) "parity" parity (List.assoc "parity" outs);
    Alcotest.(check bool) "both" (pick && parity) (List.assoc "both" outs)
  done

let test_equation_precedence () =
  (* or < xor < and: a | b ^ c & d parses as a | (b ^ (c & d)) *)
  let d = Milo_pla.Equations.to_design "y = a | b ^ c & d;" in
  let s = Milo_sim.Simulator.create (Util.env_gen ()) d in
  for m = 0 to 15 do
    let v i = m land (1 lsl i) <> 0 in
    let expect = v 0 || v 1 <> (v 2 && v 3) in
    let outs =
      Milo_sim.Simulator.outputs s
        [ ("a", v 0); ("b", v 1); ("c", v 2); ("d", v 3) ]
    in
    Alcotest.(check bool) (Printf.sprintf "m=%d" m) expect (List.assoc "y" outs)
  done

let test_equation_errors () =
  let bad src =
    match Milo_pla.Equations.to_design src with
    | _ -> false
    | exception Milo_pla.Equations.Equation_error (_, _) -> true
  in
  Alcotest.(check bool) "missing semi" true (bad "y = a & b");
  Alcotest.(check bool) "missing operand" true (bad "y = a &;");
  Alcotest.(check bool) "unbalanced paren" true (bad "y = (a & b;");
  Alcotest.(check bool) "double definition" true (bad "y = a; y = b;");
  Alcotest.(check bool) "empty" true (bad "  # nothing\n")

(* Property: a random expression tree, printed to equation text and
   elaborated, simulates exactly like direct evaluation of the tree. *)
let prop_random_equations =
  let gen = QCheck2.Gen.(pair (int_bound 10000) (int_range 1 12)) in
  Util.qtest ~count:60 "random equations behave" gen (fun (seed, size) ->
      let rng = Random.State.make [| seed |] in
      let vars = [| "a"; "b"; "c"; "d" |] in
      let module E = struct
        type t = V of int | N of t | A of t * t | O of t * t | X of t * t
      end in
      let rec gen_ast depth =
        if depth >= size || Random.State.int rng 3 = 0 then
          E.V (Random.State.int rng 4)
        else
          match Random.State.int rng 4 with
          | 0 -> E.N (gen_ast (depth + 1))
          | 1 -> E.A (gen_ast (depth + 1), gen_ast (depth + 1))
          | 2 -> E.O (gen_ast (depth + 1), gen_ast (depth + 1))
          | _ -> E.X (gen_ast (depth + 1), gen_ast (depth + 1))
      in
      let ast = gen_ast 0 in
      let rec print = function
        | E.V i -> vars.(i)
        | E.N e -> "!(" ^ print e ^ ")"
        | E.A (x, y) -> "(" ^ print x ^ " & " ^ print y ^ ")"
        | E.O (x, y) -> "(" ^ print x ^ " | " ^ print y ^ ")"
        | E.X (x, y) -> "(" ^ print x ^ " ^ " ^ print y ^ ")"
      in
      let rec eval env = function
        | E.V i -> env.(i)
        | E.N e -> not (eval env e)
        | E.A (x, y) -> eval env x && eval env y
        | E.O (x, y) -> eval env x || eval env y
        | E.X (x, y) -> eval env x <> eval env y
      in
      let d = Milo_pla.Equations.to_design (Printf.sprintf "y = %s;" (print ast)) in
      let s = Milo_sim.Simulator.create (Util.env_gen ()) d in
      let ok = ref true in
      for m = 0 to 15 do
        let env = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
        let ins = List.init 4 (fun i -> (vars.(i), env.(i))) in
        let got =
          Option.value ~default:false
            (List.assoc_opt "y" (Milo_sim.Simulator.outputs s ins))
        in
        if got <> eval env ast then ok := false
      done;
      !ok)

let () =
  Alcotest.run "pla"
    [
      ( "pla",
        [
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "behaviour" `Quick test_design_behaviour;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "errors" `Quick test_pla_errors;
          Alcotest.test_case "through the flow" `Quick test_pla_through_flow;
        ] );
      ( "equations",
        [
          Alcotest.test_case "behaviour" `Quick test_equations_behaviour;
          Alcotest.test_case "precedence" `Quick test_equation_precedence;
          Alcotest.test_case "errors" `Quick test_equation_errors;
          prop_random_equations;
        ] );
    ]

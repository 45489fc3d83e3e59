(* Lint/DRC subsystem tests: a positive and a negative fixture per
   analysis pass, the structural validator [Lint.check], the
   rule engine's debug-lint mode, and the Strict stage invariants over
   the Figure 19 suite. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Diag = Milo_lint.Diagnostic
module Lint = Milo_lint.Lint
module Rule = Milo_rules.Rule
module Engine = Milo_rules.Engine

let resolve () = Milo_library.Technology.resolver (Util.generic ())
let run ?rules d = Lint.run ~resolve:(resolve ()) ?rules d
let has rule diags = List.exists (fun d -> d.Diag.rule = rule) diags

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let find rule diags =
  match List.find_opt (fun d -> d.Diag.rule = rule) diags with
  | Some d -> d
  | None -> Alcotest.failf "no %s finding" rule

(* A0 -> INV -> Y: every pass should come back empty. *)
let clean_design () =
  let d = D.create "clean" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let g = D.add_comp d (T.Macro "INV") in
  D.connect d g "A0" a;
  D.connect d g "Y" y;
  d

let test_clean () =
  let diags = run (clean_design ()) in
  Alcotest.(check int) "no findings" 0 (List.length diags)

let test_multiple_drivers () =
  let d = clean_design () in
  let a = D.add_port d "B" T.Input in
  let y = D.add_port d "Z" T.Output in
  let g1 = D.add_comp d (T.Macro "INV") in
  let g2 = D.add_comp d (T.Macro "INV") in
  D.connect d g1 "A0" a;
  D.connect d g2 "A0" a;
  D.connect d g1 "Y" y;
  D.connect d g2 "Y" y;
  let diag = find "multiple-drivers" (run d) in
  Alcotest.(check bool) "severity" true (diag.Diag.severity = Diag.Error);
  (* the input port counts as a driver too *)
  let d2 = D.create "portdrive" in
  let b = D.add_port d2 "B" T.Input in
  let g = D.add_comp d2 (T.Macro "INV") in
  D.connect d2 g "A0" (D.add_port d2 "A" T.Input);
  D.connect d2 g "Y" b;
  Alcotest.(check bool) "port+comp drivers" true
    (has "multiple-drivers" (run d2))

let test_comb_loop () =
  let d = D.create "loop" in
  let n1 = D.new_net d in
  let n2 = D.new_net d in
  let g1 = D.add_comp d (T.Macro "INV") in
  let g2 = D.add_comp d (T.Macro "INV") in
  D.connect d g1 "A0" n2;
  D.connect d g1 "Y" n1;
  D.connect d g2 "A0" n1;
  D.connect d g2 "Y" n2;
  Alcotest.(check bool) "loop found" true (has "comb-loop" (run d));
  (* classifying one of the components as sequential breaks the cycle *)
  let seq k = k = T.Macro "INV" in
  Alcotest.(check bool) "sequential breaks loop" false
    (has "comb-loop"
       (Lint.run ~resolve:(resolve ()) ~is_sequential:seq d))

let test_floating_input () =
  let d = D.create "float" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let g = D.add_comp d (T.Gate (T.And, 2)) in
  D.connect d g "A1" a;
  D.connect d g "Y" y;
  Alcotest.(check bool) "A2 floating" true (has "floating-input" (run d));
  D.connect d g "A2" (D.add_port d "B" T.Input);
  Alcotest.(check bool) "connected" false (has "floating-input" (run d))

let reg_kind =
  T.Register
    { bits = 1; kind = T.Edge_triggered; fns = [ T.Load ]; controls = [];
      inverting = false }

let test_unconnected_clock () =
  let d = D.create "reg" in
  let c = D.add_comp d reg_kind in
  List.iter
    (fun (p, dir) -> if p <> "CLK" then D.connect d c p (D.add_port d p dir))
    (T.pins_of_kind reg_kind);
  Alcotest.(check bool) "clock open" true
    (has "unconnected-clock" (run d));
  D.connect d c "CLK" (D.add_port d "CLK" T.Input);
  Alcotest.(check bool) "clock tied" false
    (has "unconnected-clock" (run d))

let test_unknown_ref_and_pin () =
  let d = clean_design () in
  let bad = D.add_comp d (T.Macro "NOPE") in
  D.connect d bad "A0" (D.add_port d "B" T.Input);
  Alcotest.(check bool) "unknown macro" true (has "unknown-ref" (run d));
  let d2 = clean_design () in
  let g = D.add_comp d2 (T.Macro "INV") in
  D.connect d2 g "A0" (D.add_port d2 "B" T.Input);
  D.connect d2 g "Y" (D.add_port d2 "Z" T.Output);
  D.connect d2 g "ZZ" (D.new_net d2);
  Alcotest.(check bool) "unknown pin" true (has "unknown-pin" (run d2))

let test_undriven_and_dangling () =
  let d = clean_design () in
  let g = D.add_comp d (T.Gate (T.And, 2)) in
  D.connect d g "A1" (D.add_port d "B" T.Input);
  D.connect d g "A2" (D.new_net d);
  (* undriven, read *)
  D.connect d g "Y" (D.new_net d);
  (* driven, unread *)
  let diags = run d in
  Alcotest.(check bool) "undriven warning" true
    ((find "undriven-net" diags).Diag.severity = Diag.Warning);
  Alcotest.(check bool) "dangling warning" true
    ((find "dangling-output" diags).Diag.severity = Diag.Warning);
  (* dead logic: the AND cone is unreachable from any output port *)
  Alcotest.(check bool) "dead logic" true (has "dead-logic" diags)

let test_const_input () =
  let d = clean_design () in
  let k = D.add_comp d (T.Constant T.Vdd) in
  let n = D.new_net d in
  D.connect d k "Y" n;
  let g = D.add_comp d (T.Macro "INV") in
  D.connect d g "A0" n;
  D.connect d g "Y" (D.add_port d "Z" T.Output);
  Alcotest.(check bool) "const input info" true
    ((find "const-input" (run d)).Diag.severity = Diag.Info)

let test_net_consistency () =
  let d = clean_design () in
  let g = List.hd (D.comps d) in
  Hashtbl.replace g.D.conns "A0" 9999;
  Alcotest.(check bool) "dangling net ref" true
    (has "net-consistency" (run d))

(* FWD and REV have the same pins in opposite directions. *)
let flip_resolve : D.resolver =
 fun _ nm ->
  match nm with
  | "FWD" -> [ ("A", T.Input); ("Y", T.Output) ]
  | "REV" -> [ ("A", T.Output); ("Y", T.Input) ]
  | _ -> invalid_arg nm

(* a -> FWD -> n -> FWD -> y, with every driver and fanout queried. *)
let queried_chain () =
  let d = D.create "chain" in
  let a = D.add_port d "a" T.Input in
  let y = D.add_port d "y" T.Output in
  let n = D.new_net d in
  let g1 = D.add_comp d (T.Macro "FWD") in
  let g2 = D.add_comp d (T.Macro "FWD") in
  D.connect d g1 "A" a;
  D.connect d g1 "Y" n;
  D.connect d g2 "A" n;
  D.connect d g2 "Y" y;
  List.iter
    (fun (n : D.net) ->
      ignore (D.driver ~resolve:flip_resolve d n.D.nid);
      ignore (D.fanout ~resolve:flip_resolve d n.D.nid))
    (D.nets d);
  (d, g2)

let stale_index diags =
  List.exists
    (fun g ->
      g.Diag.rule = "net-consistency"
      && contains ~sub:"stale driver index" g.Diag.message)
    diags

(* A kind assigned past [D.set_kind] that flips a pin's direction leaves
   the netlist's driver index stale; lint's own walk reports it. *)
let test_stale_driver_index () =
  let lint d = Lint.run ~resolve:flip_resolve ~rules:[ "net-consistency" ] d in
  let d, g2 = queried_chain () in
  Alcotest.(check int) "clean before" 0 (List.length (lint d));
  D.set_kind d g2 (T.Macro "REV");
  Alcotest.(check bool) "set_kind keeps the index fresh" false
    (stale_index (lint d));
  let d, g2 = queried_chain () in
  (D.comp d g2).D.kind <- T.Macro "REV";
  let diag =
    List.find_opt
      (fun g -> g.Diag.rule = "net-consistency")
      (lint d)
  in
  match diag with
  | Some g ->
      Alcotest.(check bool) "reported as stale" true (stale_index [ g ]);
      Alcotest.(check bool) "error" true (g.Diag.severity = Diag.Error)
  | None -> Alcotest.fail "direct kind assignment not reported"

(* --- the structural validator ------------------------------------------ *)

let test_lint_check () =
  let resolve = resolve () in
  Alcotest.(check bool) "clean ok" true
    (Lint.check ~resolve (clean_design ()) = Ok ());
  let d = D.create "bad" in
  let a = D.add_port d "A" T.Input in
  let g1 = D.add_comp d (T.Macro "INV") in
  let g2 = D.add_comp d (T.Macro "INV") in
  let n = D.new_net d in
  D.connect d g1 "A0" a;
  D.connect d g2 "A0" a;
  D.connect d g1 "Y" n;
  D.connect d g2 "Y" n;
  match Lint.check ~resolve d with
  | Ok () -> Alcotest.fail "double driver not caught"
  | Error msgs ->
      Alcotest.(check bool) "mentions multiple drivers" true
        (List.exists (contains ~sub:"multiple drivers") msgs)

(* --- engine debug-lint ------------------------------------------------- *)

(* A deliberately unsound rule: points the INV's output at a nonexistent
   net, off the books (no log entry), which net-consistency must catch. *)
let corrupt_rule =
  Rule.make ~name:"corrupt" ~cls:Rule.Cleanup
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          if Hashtbl.find_opt c.D.conns "Y" = Some 9999 then None
          else Some (Rule.site ~comps:[ c.D.id ] "corrupt"))
        (Rule.scan_comps ctx))
    ~apply:(fun ctx site _log ->
      match site.Rule.site_comps with
      | cid :: _ ->
          let c = D.comp ctx.Rule.design cid in
          Hashtbl.replace c.D.conns "Y" 9999;
          true
      | [] -> false) ()

let test_debug_lint () =
  let ctx () = Util.ctx_for (Util.generic ()) (clean_design ()) in
  (* off: the corruption goes unnoticed *)
  Alcotest.(check bool) "fires" true
    (Engine.ops_cycle (ctx ()) (Engine.ops_create ()) [ corrupt_rule ]);
  let linted = ctx () in
  Engine.set_debug_lint linted.Rule.session true;
  match Engine.ops_cycle linted (Engine.ops_create ()) [ corrupt_rule ] with
  | (_ : bool) -> Alcotest.fail "Lint_violation expected"
  | exception Engine.Lint_violation (rule, _) ->
      Alcotest.(check string) "offending rule" "corrupt" rule

(* --- stage invariants over the suite ----------------------------------- *)

let test_flow_strict () =
  List.iter
    (fun (c : Milo_designs.Suite.case) ->
      match
        Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
          ~constraints:c.Milo_designs.Suite.constraints ~lint:Lint.Strict
          c.Milo_designs.Suite.case_design
      with
      | res ->
          (* stages only appear in [lint_findings] when they found
             something, and the suite is expected to be clean *)
          List.iter
            (fun (stage, diags) ->
              Alcotest.(check int)
                (Printf.sprintf "design %s: no errors at %s"
                   c.Milo_designs.Suite.case_name stage)
                0
                (List.length (Lint.errors diags)))
            res.Milo.Flow.lint_findings
      | exception Lint.Lint_error r ->
          Alcotest.failf "design %s: %s" c.Milo_designs.Suite.case_name
            (Lint.report_to_string r))
    (Milo_designs.Suite.all ())

let test_lint_level_names () =
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun l -> Lint.level_of_string (Lint.level_name l) = Some l)
       [ Lint.Off; Lint.Warn; Lint.Strict ]);
  Alcotest.(check bool) "unknown" true (Lint.level_of_string "bogus" = None)

let test_json () =
  let d = clean_design () in
  let g = D.add_comp d (T.Macro "NOPE") in
  D.connect d g "A0" (D.new_net d);
  let report =
    { Lint.design_name = D.name d; stage = Some "capture"; diags = run d }
  in
  let json = Lint.report_to_json report in
  Alcotest.(check bool) "mentions rule" true (contains ~sub:"unknown-ref" json)

let () =
  Alcotest.run "lint"
    [
      ( "passes",
        [
          Alcotest.test_case "clean design" `Quick test_clean;
          Alcotest.test_case "multiple drivers" `Quick test_multiple_drivers;
          Alcotest.test_case "comb loop" `Quick test_comb_loop;
          Alcotest.test_case "floating input" `Quick test_floating_input;
          Alcotest.test_case "unconnected clock" `Quick test_unconnected_clock;
          Alcotest.test_case "unknown ref/pin" `Quick test_unknown_ref_and_pin;
          Alcotest.test_case "undriven/dangling/dead" `Quick
            test_undriven_and_dangling;
          Alcotest.test_case "const input" `Quick test_const_input;
          Alcotest.test_case "net consistency" `Quick test_net_consistency;
          Alcotest.test_case "stale driver index" `Quick test_stale_driver_index;
        ] );
      ( "integration",
        [
          Alcotest.test_case "Lint.check" `Quick test_lint_check;
          Alcotest.test_case "engine debug lint" `Quick test_debug_lint;
          Alcotest.test_case "strict flow over suite" `Slow test_flow_strict;
          Alcotest.test_case "level names" `Quick test_lint_level_names;
          Alcotest.test_case "json report" `Quick test_json;
        ] );
    ]

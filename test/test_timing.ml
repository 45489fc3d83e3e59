(* Static timing analysis tests: arrivals, critical paths, slack,
   point-of-optimization selection, load dependence. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Sta = Milo_timing.Sta

let env name = Milo_library.Technology.find (Util.ecl ()) name

(* A 3-gate chain: A -> INV -> OR2(B) -> AND2(C) -> Y *)
let chain () =
  let d = D.create "chain" in
  let a = D.add_port d "A" T.Input in
  let b = D.add_port d "B" T.Input in
  let c = D.add_port d "C" T.Input in
  let y = D.add_port d "Y" T.Output in
  let inv = D.add_comp d ~name:"inv" (T.Macro "E_INV") in
  let org = D.add_comp d ~name:"org" (T.Macro "E_OR2") in
  let andg = D.add_comp d ~name:"andg" (T.Macro "E_AND2") in
  let n1 = D.new_net d and n2 = D.new_net d in
  D.connect d inv "A0" a;
  D.connect d inv "Y" n1;
  D.connect d org "A0" n1;
  D.connect d org "A1" b;
  D.connect d org "Y" n2;
  D.connect d andg "A0" n2;
  D.connect d andg "A1" c;
  D.connect d andg "Y" y;
  d

let test_chain_arrivals () =
  let d = chain () in
  let sta = Sta.analyze env d in
  let worst = Sta.worst_delay sta in
  Alcotest.(check bool) "positive" true (worst > 0.0);
  (* worst path goes through all three gates *)
  match Sta.critical_path sta with
  | Some p ->
      Alcotest.(check int) "three hops" 3 (List.length p.Sta.hops);
      Alcotest.(check bool) "delay matches worst" true
        (Float.abs (p.Sta.path_delay -. worst) < 1e-9)
  | None -> Alcotest.fail "no critical path"

let test_input_arrival_shifts_path () =
  let d = chain () in
  let sta = Sta.analyze ~input_arrivals:[ ("C", 10.0) ] env d in
  (* now the critical path is through C: one hop *)
  match Sta.critical_path sta with
  | Some p ->
      Alcotest.(check int) "one hop via C" 1 (List.length p.Sta.hops);
      Alcotest.(check bool) "worst > 10" true (Sta.worst_delay sta > 10.0)
  | None -> Alcotest.fail "no critical path"

let test_monotone_under_load () =
  (* Adding a sink to a net increases the driver's delay (load model). *)
  let d = chain () in
  let before = Sta.worst_delay (Sta.analyze env d) in
  let n1 = (D.find_comp d "inv").D.conns |> fun t -> Hashtbl.find t "Y" in
  let extra = D.add_comp d (T.Macro "E_BUF") in
  D.connect d extra "A0" n1;
  let sink = D.new_net d in
  D.connect d extra "Y" sink;
  let after = Sta.worst_delay (Sta.analyze env d) in
  Alcotest.(check bool) "load increases delay" true (after > before)

let test_sequential_breaks_path () =
  let d = D.create "seqbrk" in
  let a = D.add_port d "A" T.Input in
  let clk = D.add_port d "CLK" T.Input in
  let y = D.add_port d "Y" T.Output in
  let g1 = D.add_comp d (T.Macro "E_INV") in
  let ff = D.add_comp d (T.Macro "E_DFF") in
  let g2 = D.add_comp d (T.Macro "E_INV") in
  let n1 = D.new_net d and n2 = D.new_net d in
  D.connect d g1 "A0" a;
  D.connect d g1 "Y" n1;
  D.connect d ff "D" n1;
  D.connect d ff "CLK" clk;
  D.connect d ff "Q" n2;
  D.connect d g2 "A0" n2;
  D.connect d g2 "Y" y;
  let sta = Sta.analyze env d in
  (* two endpoints: ff.D and port Y, neither accumulating both invs *)
  let eps = Sta.endpoints sta in
  Alcotest.(check bool) "two endpoints" true (List.length eps >= 2);
  List.iter
    (fun (ep, arr) ->
      Alcotest.(check bool)
        (Printf.sprintf "endpoint %s short" (Sta.endpoint_name sta ep))
        true
        (* each segment has exactly one inverter plus clk-q/load *)
        (arr < 3.0))
    eps

let test_slacks () =
  let d = chain () in
  let sta = Sta.analyze env d in
  let slacks = Sta.slacks ~required:100.0 sta in
  List.iter
    (fun (_, s) -> Alcotest.(check bool) "all positive" true (s > 0.0))
    slacks;
  let slacks = Sta.slacks ~required:0.0 sta in
  Alcotest.(check bool) "some negative" true
    (List.exists (fun (_, s) -> s < 0.0) slacks)

let test_select_point () =
  (* Two critical paths sharing the AND gate: the shared gate is the
     point of optimization (criterion 1). *)
  let d = chain () in
  let sta = Sta.analyze env d in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  ignore ctx;
  match Milo_timing.Paths.select_point sta with
  | Some cid ->
      (* The chain's single path passes through all gates: select the
         one closest to the input among max-count (all count 1). *)
      let c = D.comp d cid in
      Alcotest.(check string) "closest to input" "inv" c.D.cname
  | None -> Alcotest.fail "no point selected"

let test_critical_set_with_requirement () =
  let d = chain () in
  let sta = Sta.analyze env d in
  let all = Milo_timing.Paths.critical_set ~required:0.1 sta in
  Alcotest.(check bool) "violating paths found" true (List.length all >= 1);
  let none = Milo_timing.Paths.critical_set ~required:1000.0 sta in
  Alcotest.(check int) "no violations" 0 (List.length none)

let test_high_power_is_faster_in_sta () =
  let d = chain () in
  let before = Sta.worst_delay (Sta.analyze env d) in
  let inv = D.find_comp d "inv" in
  D.set_kind d inv.D.id (T.Macro "E_INVH");
  let org = D.find_comp d "org" in
  D.set_kind d org.D.id (T.Macro "E_OR2H");
  let andg = D.find_comp d "andg" in
  D.set_kind d andg.D.id (T.Macro "E_AND2H");
  let after = Sta.worst_delay (Sta.analyze env d) in
  Alcotest.(check bool) "H variants faster" true (after < before)

(* --- Incremental update ------------------------------------------------ *)

let assert_same_timing what got want =
  Alcotest.(check bool)
    (what ^ ": worst delay")
    true
    (Float.abs (Sta.worst_delay got -. Sta.worst_delay want) < 1e-9);
  let norm s =
    List.sort compare
      (List.map (fun (ep, t) -> (Sta.endpoint_name s ep, t)) (Sta.endpoints s))
  in
  let g = norm got and w = norm want in
  Alcotest.(check int) (what ^ ": endpoint count") (List.length w)
    (List.length g);
  List.iter2
    (fun (gn, gt) (wn, wt) ->
      Alcotest.(check string) (what ^ ": endpoint") wn gn;
      Alcotest.(check bool)
        (what ^ ": arrival at " ^ wn)
        true
        (Float.abs (gt -. wt) < 1e-9))
    g w

let test_update_set_kind () =
  (* Re-kinding components and updating incrementally matches a fresh
     analyze after every edit; rolling the tokens back (newest first)
     restores the original state exactly. *)
  let d = Util.mapped_workload ~gates:40 ~seed:9 in
  let sta = Sta.analyze env d in
  let original = Sta.analyze env d in
  let swaps =
    [
      ("E_OR2", "E_NOR2"); ("E_NOR2", "E_OR2"); ("E_AND2", "E_NAND2");
      ("E_NAND2", "E_AND2"); ("E_INV", "E_BUF"); ("E_BUF", "E_INV");
    ]
  in
  let candidates =
    List.filter_map
      (fun (c : D.comp) ->
        match c.D.kind with
        | T.Macro m -> (
            match List.assoc_opt m swaps with
            | Some m'
              when Milo_library.Technology.find_opt (Util.ecl ()) m' <> None ->
                Some (c.D.id, c.D.kind, T.Macro m')
            | _ -> None)
        | _ -> None)
      (D.comps d)
  in
  let picked = List.filteri (fun i _ -> i < 5) candidates in
  Alcotest.(check bool) "found swappable comps" true (picked <> []);
  let tokens =
    List.map
      (fun (cid, _, kind') ->
        D.set_kind d cid kind';
        let tok = Sta.update sta ~touched_nets:[] ~touched_comps:[ cid ] in
        assert_same_timing
          (Printf.sprintf "after set_kind %d" cid)
          sta (Sta.analyze env d);
        tok)
      picked
  in
  List.iter2
    (fun (cid, kind, _) tok ->
      D.set_kind d cid kind;
      Sta.rollback sta tok)
    (List.rev picked) (List.rev tokens);
  assert_same_timing "after rollback" sta original

let test_update_rewire () =
  (* Re-connecting a pin: the update over the touched comp and both
     nets matches a fresh analyze; rollback restores the original. *)
  let d = chain () in
  let sta = Sta.analyze env d in
  let original = Sta.analyze env d in
  let org = D.find_comp d "org" in
  let old_net = Hashtbl.find org.D.conns "A1" in
  let inv_out = Hashtbl.find (D.find_comp d "inv").D.conns "Y" in
  D.connect d org.D.id "A1" inv_out;
  let tok =
    Sta.update sta ~touched_nets:[ old_net; inv_out ]
      ~touched_comps:[ org.D.id ]
  in
  assert_same_timing "after rewire" sta (Sta.analyze env d);
  D.connect d org.D.id "A1" old_net;
  Sta.rollback sta tok;
  assert_same_timing "after rewire rollback" sta original

let test_rollback_keeps_endpoint_order () =
  (* Endpoints that tie on arrival are listed in the order of the
     endpoint table.  An update over a sequential component takes its
     endpoints out and puts them back, and one over its removal takes
     them out for good; on designs 1-8 under ECL and CMOS, rolling
     either back lists every endpoint as before, ties included. *)
  let compared = ref 0 in
  List.iter
    (fun (name, (target : Milo_techmap.Table_map.target), d) ->
      let d = D.copy d in
      let env = Milo_library.Technology.find target.Milo_techmap.Table_map.tech in
      let sta = Sta.analyze env d in
      let image () =
        List.map (fun (ep, v) -> (Sta.endpoint_name sta ep, v)) (Sta.endpoints sta)
      in
      let before = image () in
      let same what =
        incr compared;
        Alcotest.(check (list (pair string (float 0.0))))
          (Printf.sprintf "%s: %s" name what)
          before (image ())
      in
      List.iter
        (fun (c : D.comp) ->
          match c.D.kind with
          | T.Macro m when Milo_library.Macro.is_sequential (env m) ->
              let tok = Sta.update sta ~touched_nets:[] ~touched_comps:[ c.D.id ] in
              Sta.rollback sta tok;
              same ("touched " ^ c.D.cname);
              let log = D.new_log () in
              let nets = List.map snd (D.connections d c.D.id) in
              D.remove_comp ~log d c.D.id;
              let tok = Sta.update sta ~touched_nets:nets ~touched_comps:[ c.D.id ] in
              D.undo d log;
              Sta.rollback sta tok;
              same ("removed " ^ c.D.cname)
          | _ -> ())
        (D.comps d))
    (Mapped_cases.designs ());
  Alcotest.(check bool) "sequential components compared" true (!compared > 40)

let () =
  Alcotest.run "timing"
    [
      ( "sta",
        [
          Alcotest.test_case "chain arrivals" `Quick test_chain_arrivals;
          Alcotest.test_case "input arrivals" `Quick test_input_arrival_shifts_path;
          Alcotest.test_case "load monotone" `Quick test_monotone_under_load;
          Alcotest.test_case "sequential breaks paths" `Quick
            test_sequential_breaks_path;
          Alcotest.test_case "slack" `Quick test_slacks;
          Alcotest.test_case "high power faster" `Quick
            test_high_power_is_faster_in_sta;
        ] );
      ( "paths",
        [
          Alcotest.test_case "select point" `Quick test_select_point;
          Alcotest.test_case "incremental set_kind" `Quick
            test_update_set_kind;
          Alcotest.test_case "incremental rewire" `Quick test_update_rewire;
          Alcotest.test_case "rollback keeps endpoint order" `Quick
            test_rollback_keeps_endpoint_order;
          Alcotest.test_case "critical set" `Quick test_critical_set_with_requirement;
        ] );
    ]

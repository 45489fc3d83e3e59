(* Netlist IR tests: design graph operations, the undo log, the textual
   format round-trip, structural statistics. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

let test_pins_of_kind () =
  let pins = T.pins_of_kind (T.Gate (T.And, 3)) in
  Alcotest.(check int) "and3 pins" 4 (List.length pins);
  let pins = T.pins_of_kind (T.Multiplexor { bits = 2; inputs = 4; enable = true }) in
  (* 4*2 data + 2 sel + en + 2 out *)
  Alcotest.(check int) "mux pins" 13 (List.length pins);
  let pins =
    T.pins_of_kind
      (T.Register
         { bits = 4; kind = T.Edge_triggered; fns = [ T.Load; T.Shift_right ];
           controls = [ T.Reset ]; inverting = false })
  in
  (* 4 D + SIR + M0 + CLK + RST + 4 Q *)
  Alcotest.(check int) "reg pins" 12 (List.length pins);
  Alcotest.(check bool) "inv arity" true
    (List.length (T.pins_of_kind (T.Gate (T.Inv, 5))) = 2)

let test_kind_name_unique () =
  let kinds =
    [
      T.Gate (T.And, 2); T.Gate (T.And, 3); T.Gate (T.Nand, 2);
      T.Multiplexor { bits = 1; inputs = 2; enable = false };
      T.Multiplexor { bits = 1; inputs = 2; enable = true };
      T.Arith_unit { bits = 4; fns = [ T.Add ]; mode = T.Ripple };
      T.Arith_unit { bits = 4; fns = [ T.Add ]; mode = T.Lookahead };
      T.Counter { bits = 4; fns = [ T.Count_up ]; controls = [ T.Reset ] };
    ]
  in
  let names = List.map T.kind_name kinds in
  Alcotest.(check int) "unique names" (List.length kinds)
    (List.length (List.sort_uniq compare names))

let test_design_basic () =
  let d = D.create "t" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let g = D.add_comp d (T.Macro "INV") in
  D.connect d g "A0" a;
  D.connect d g "Y" y;
  Alcotest.(check int) "comps" 1 (D.num_comps d);
  Alcotest.(check int) "nets" 2 (D.num_nets d);
  let resolve = Milo_library.Technology.resolver (Util.generic ()) in
  Alcotest.(check bool) "check ok" true
    (Milo_lint.Lint.check ~resolve d = Ok ());
  (match D.driver ~resolve d y with
  | D.Src_comp (cid, "Y") -> Alcotest.(check int) "driver" g cid
  | D.Src_comp _ | D.Src_port _ | D.Src_none -> Alcotest.fail "wrong driver");
  Alcotest.(check int) "fanout of A" 1 (D.fanout ~resolve d a)

let test_check_catches_multiple_drivers () =
  let d = D.create "bad" in
  let a = D.add_port d "A" T.Input in
  let g1 = D.add_comp d (T.Macro "INV") in
  let g2 = D.add_comp d (T.Macro "INV") in
  let n = D.new_net d in
  D.connect d g1 "A0" a;
  D.connect d g2 "A0" a;
  D.connect d g1 "Y" n;
  D.connect d g2 "Y" n;
  let resolve = Milo_library.Technology.resolver (Util.generic ()) in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  (match Milo_lint.Lint.check ~resolve d with
  | Error msgs ->
      Alcotest.(check bool) "mentions drivers" true
        (List.exists (fun m -> contains m "multiple drivers") msgs)
  | Ok () -> Alcotest.fail "expected check failure")

let test_undo_simple () =
  let d = D.create "u" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let g = D.add_comp d (T.Macro "INV") in
  D.connect d g "A0" a;
  D.connect d g "Y" y;
  let snap = D.copy d in
  let log = D.new_log () in
  let g2 = D.add_comp ~log d (T.Macro "BUF") in
  let n = D.new_net ~log d in
  D.connect ~log d g2 "A0" a;
  D.connect ~log d g2 "Y" n;
  D.disconnect ~log d g "A0";
  D.connect ~log d g "A0" n;
  D.set_kind ~log d g (T.Macro "BUF");
  D.remove_comp ~log d g2;
  D.undo d log;
  Alcotest.(check bool) "undo restores" true (D.equal_structure snap d)

(* Random edit scripts followed by undo restore the design exactly. *)
let prop_undo_random =
  let gen = QCheck2.Gen.(pair (int_bound 1000) (int_range 1 30)) in
  Util.qtest ~count:60 "random edits undo" gen (fun (seed, steps) ->
      let rng = Random.State.make [| seed |] in
      let d = D.create "r" in
      let a = D.add_port d "A" T.Input in
      let _y = D.add_port d "Y" T.Output in
      let g = D.add_comp d (T.Macro "INV") in
      D.connect d g "A0" a;
      let snap = D.copy d in
      let log = D.new_log () in
      let macros = [| "INV"; "BUF"; "AND2"; "OR2"; "NAND2" |] in
      for _ = 1 to steps do
        match Random.State.int rng 5 with
        | 0 ->
            ignore
              (D.add_comp ~log d
                 (T.Macro macros.(Random.State.int rng (Array.length macros))))
        | 1 -> ignore (D.new_net ~log d)
        | 2 ->
            (* connect a random comp pin to a random net *)
            let comps = D.comps d in
            let nets = D.nets d in
            if comps <> [] && nets <> [] then begin
              let c = List.nth comps (Random.State.int rng (List.length comps)) in
              let n = List.nth nets (Random.State.int rng (List.length nets)) in
              D.connect ~log d c.D.id "A0" n.D.nid
            end
        | 3 ->
            let comps = D.comps d in
            if List.length comps > 1 then begin
              let c = List.nth comps (Random.State.int rng (List.length comps)) in
              D.remove_comp ~log d c.D.id
            end
        | _ ->
            let comps = D.comps d in
            if comps <> [] then begin
              let c = List.nth comps (Random.State.int rng (List.length comps)) in
              D.set_kind ~log d c.D.id (T.Macro "BUF")
            end
      done;
      D.undo d log;
      D.equal_structure snap d && D.counters snap = D.counters d)

(* Undo hands back the ids a log added: the counters return to their
   old values and the next allocations repeat an untouched copy's.  An
   older log undone after a later commit hands back nothing the commit
   still uses. *)
let test_undo_counters () =
  let d = D.create "ids" in
  let a = D.add_port d "A" T.Input in
  let g = D.add_comp d (T.Macro "INV") in
  D.connect d g "A0" a;
  let untouched = D.copy d in
  let before = D.counters d in
  let log = D.new_log () in
  let n = D.new_net ~log d in
  let g2 = D.add_comp ~log d (T.Macro "BUF") in
  D.connect ~log d g2 "A0" a;
  D.connect ~log d g2 "Y" n;
  ignore (D.add_comp ~log d (T.Macro "INV"));
  ignore (D.new_net ~log d);
  D.remove_comp ~log d g2;
  D.undo d log;
  Alcotest.(check (pair int int)) "counters restored" before (D.counters d);
  Alcotest.(check bool) "structure restored" true (D.equal_structure untouched d);
  Alcotest.(check int) "next comp id" (D.add_comp untouched (T.Macro "BUF"))
    (D.add_comp d (T.Macro "BUF"));
  Alcotest.(check int) "next net id" (D.new_net untouched) (D.new_net d);
  (* An older log, then a committed one on top of it: undoing the older
     one leaves the committed ids spent. *)
  let older = D.new_log () in
  let old_comp = D.add_comp ~log:older d (T.Macro "INV") in
  let old_net = D.new_net ~log:older d in
  let later = D.new_log () in
  let kept_comp = D.add_comp ~log:later d (T.Macro "BUF") in
  let kept_net = D.new_net ~log:later d in
  D.commit later;
  let committed = D.counters d in
  D.undo d older;
  Alcotest.(check bool) "older ids gone" true
    (D.comp_opt d old_comp = None && D.net_opt d old_net = None);
  Alcotest.(check (pair int int)) "committed ids stay spent" committed (D.counters d);
  let fresh_comp = D.add_comp d (T.Macro "INV") and fresh_net = D.new_net d in
  Alcotest.(check bool) "no committed id is handed out again" true
    (fresh_comp > kept_comp && fresh_net > kept_net)

(* The memoised pin directions, drivers and loads equal a fresh walk
   after every edit.  Every kind has the pins A and Y; FWD and REV give
   them opposite directions, so [set_kind] between them flips a
   driver without changing any net's pin list. *)
let memo_kinds =
  [|
    T.Macro "FWD"; T.Macro "REV"; T.Macro "SINK2"; T.Macro "SRC2";
    T.Instance "SUB";
  |]

let memo_resolve : D.resolver =
 fun _ nm ->
  match nm with
  | "FWD" | "SUB" -> [ ("A", T.Input); ("Y", T.Output) ]
  | "REV" -> [ ("A", T.Output); ("Y", T.Input) ]
  | "SINK2" -> [ ("A", T.Input); ("Y", T.Input) ]
  | "SRC2" -> [ ("A", T.Output); ("Y", T.Output) ]
  | _ -> invalid_arg nm

(* The reference: every pin resolved afresh, no memo involved. *)
let fresh_dir d (cid, pin) =
  List.assoc pin
    (T.pins_of_kind ~resolve:memo_resolve (D.comp d cid).D.kind)

let check_memos what d =
  let resolve = memo_resolve in
  List.iter
    (fun (n : D.net) ->
      let nid = n.D.nid in
      let pins = n.D.npins in
      let driver =
        match List.find_opt (fun p -> fresh_dir d p = T.Output) pins with
        | Some (cid, pin) -> D.Src_comp (cid, pin)
        | None -> (
            match n.D.nport with
            | Some (p, T.Input) -> D.Src_port p
            | Some (_, T.Output) | None -> D.Src_none)
      in
      let sinks = List.filter (fun p -> fresh_dir d p = T.Input) pins in
      let fanout =
        List.length sinks
        + match n.D.nport with Some (_, T.Output) -> 1 | _ -> 0
      in
      let fail field =
        Alcotest.failf "%s: net %s: %s differs from a fresh walk" what
          n.D.nname field
      in
      List.iter
        (fun ((cid, pin) as p) ->
          if D.pin_dir ~resolve d cid pin <> fresh_dir d p then fail "pin_dir")
        pins;
      if D.driver ~resolve d nid <> driver then fail "driver";
      if D.sinks ~resolve d nid <> sinks then fail "sinks";
      if D.fanout ~resolve d nid <> fanout then fail "fanout")
    (D.nets d)

(* [D.comps] and [D.nets] against an enumeration of every id below the
   fresh-id counters, which reads no listing. *)
let check_listing what d =
  let next_comp, next_net = D.counters d in
  let ids l = List.map string_of_int l |> String.concat "," in
  let want_comps = List.filter_map (D.comp_opt d) (List.init next_comp Fun.id)
  and want_nets = List.filter_map (D.net_opt d) (List.init next_net Fun.id) in
  if not (List.equal ( == ) (D.comps d) want_comps) then
    Alcotest.failf "%s: comps [%s], want [%s]" what
      (ids (List.map (fun (c : D.comp) -> c.D.id) (D.comps d)))
      (ids (List.map (fun (c : D.comp) -> c.D.id) want_comps));
  if not (List.equal ( == ) (D.nets d) want_nets) then
    Alcotest.failf "%s: nets [%s], want [%s]" what
      (ids (List.map (fun (n : D.net) -> n.D.nid) (D.nets d)))
      (ids (List.map (fun (n : D.net) -> n.D.nid) want_nets))

let test_listings_follow_edits () =
  let d = D.create "listing" in
  let a = D.add_port d "a" T.Input in
  let g = D.add_comp d (T.Macro "FWD") in
  D.connect d g "A" a;
  check_listing "built" d;
  (* listed twice at one generation: the same list *)
  Alcotest.(check bool) "memo hit" true (D.comps d == D.comps d);
  let n = D.new_net d in
  let h = D.add_comp d (T.Macro "REV") in
  D.connect d h "A" n;
  check_listing "after add" d;
  let log = D.new_log () in
  D.disconnect ~log d h "A";
  D.remove_comp ~log d h;
  D.remove_net ~log d n;
  check_listing "after remove" d;
  Alcotest.(check int) "removed comp unlisted" 1 (List.length (D.comps d));
  D.undo d log;
  check_listing "after undo" d;
  Alcotest.(check int) "undo lists the removed comp again" 2
    (List.length (D.comps d));
  let c = D.copy d in
  check_listing "copy" c;
  ignore (D.add_comp c (T.Macro "SINK2"));
  ignore (D.new_net c);
  check_listing "copy after add" c;
  check_listing "original after the copy's add" d;
  Alcotest.(check int) "original keeps its comps" 2 (List.length (D.comps d));
  D.remove_comp d g;
  check_listing "original after remove" d;
  check_listing "copy after the original's remove" c;
  D.restore_comp d ~id:g ~name:"g" (T.Macro "FWD");
  check_listing "after restore" d

let prop_memos_match_fresh_walk =
  let gen = QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 60)) in
  Util.qtest ~count:150 "memos equal a fresh walk under every edit" gen
    (fun (seed, steps) ->
      let rng = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let pick_list l =
        match l with
        | [] -> None
        | l -> Some (List.nth l (Random.State.int rng (List.length l)))
      in
      let d = ref (D.create "memo") in
      let a = D.add_port !d "a" T.Input in
      let y = D.add_port !d "y" T.Output in
      let g = D.add_comp !d (T.Macro "FWD") in
      D.connect !d g "A" a;
      D.connect !d g "Y" y;
      let log = ref (D.new_log ()) in
      let undone = ref None in
      let removed_comps = ref [] and removed_nets = ref [] in
      let ports = ref 0 in
      (* unlogged edits may not interleave with a pending log *)
      let settle () = D.commit !log in
      for step = 1 to steps do
        let redo = !undone in
        undone := None;
        let log_ = !log in
        let op =
          match redo with
          | Some _ when Random.State.bool rng -> 10
          | Some _ | None -> Random.State.int rng 14
        in
        (match op with
        | 0 -> ignore (D.add_comp ~log:log_ !d (pick memo_kinds))
        | 1 -> ignore (D.new_net ~log:log_ !d)
        | 2 | 3 -> (
            match (pick_list (D.comps !d), pick_list (D.nets !d)) with
            | Some c, Some n ->
                D.connect ~log:log_ !d c.D.id (pick [| "A"; "Y" |]) n.D.nid
            | _ -> ())
        | 4 -> (
            match pick_list (D.comps !d) with
            | Some c -> D.disconnect ~log:log_ !d c.D.id (pick [| "A"; "Y" |])
            | None -> ())
        | 5 -> (
            match pick_list (D.comps !d) with
            | Some c ->
                D.remove_comp ~log:log_ !d c.D.id;
                removed_comps := c.D.id :: !removed_comps
            | None -> ())
        | 6 -> (
            match
              pick_list
                (List.filter
                   (fun (n : D.net) -> n.D.npins = [] && n.D.nport = None)
                   (D.nets !d))
            with
            | Some n ->
                D.remove_net ~log:log_ !d n.D.nid;
                removed_nets := n.D.nid :: !removed_nets
            | None -> ())
        | 7 | 8 -> (
            match pick_list (D.comps !d) with
            | Some c -> D.set_kind ~log:log_ !d c.D.id (pick memo_kinds)
            | None -> ())
        | 9 ->
            let es = D.entries log_ in
            D.undo !d log_;
            undone := Some es
        | 10 -> (
            (* redo right after an undo; otherwise keep the edits *)
            match redo with Some es -> D.redo !d es | None -> settle ())
        | 11 ->
            settle ();
            incr ports;
            let reuse =
              List.find_opt
                (fun (n : D.net) -> n.D.nport = None)
                (D.nets !d)
            in
            ignore
              (D.add_port
                 ?net:(Option.map (fun (n : D.net) -> n.D.nid) reuse)
                 !d
                 (Printf.sprintf "p%d" !ports)
                 (pick [| T.Input; T.Output |]))
        | 12 ->
            (* continue on a copy; the original must keep its answers *)
            let orig = !d in
            settle ();
            d := D.copy orig;
            log := D.new_log ();
            (match pick_list (D.comps !d) with
            | Some c -> D.set_kind !d c.D.id (pick memo_kinds)
            | None -> ());
            check_memos "original after copy" orig
        | _ -> (
            settle ();
            let next_comp, next_net = D.counters !d in
            let live_comp id = D.comp_opt !d id <> None in
            let live_net id = D.net_opt !d id <> None in
            match Random.State.int rng 2 with
            | 0 ->
                let id =
                  match
                    List.find_opt (fun id -> not (live_comp id)) !removed_comps
                  with
                  | Some id -> id
                  | None -> next_comp + 1
                in
                D.restore_comp !d ~id ~name:(Printf.sprintf "r%d" id)
                  (pick memo_kinds)
            | _ ->
                let id =
                  match
                    List.find_opt (fun id -> not (live_net id)) !removed_nets
                  with
                  | Some id -> id
                  | None -> next_net + 1
                in
                D.restore_net !d ~id ~name:(Printf.sprintf "rn%d" id)));
        check_memos (Printf.sprintf "seed %d step %d" seed step) !d;
        check_listing (Printf.sprintf "seed %d step %d" seed step) !d
      done;
      (* a design holds no closure, so it still compares with [=] *)
      D.copy !d = D.copy !d)

let test_roundtrip () =
  let case = Milo_designs.Suite.design6 () in
  let d = case.Milo_designs.Suite.case_design in
  let text = Milo_netlist.Writer.to_string d in
  let d2 = Milo_netlist.Parser.of_string text in
  (* Round-trip designs simulate identically. *)
  Util.check_equiv ~seq:true (Util.env_gen ()) d (Util.env_gen ()) d2

let test_parser_errors () =
  let bad s =
    match Milo_netlist.Parser.of_string s with
    | exception Milo_netlist.Parser.Parse_error (_, _) -> true
    | _ -> false
  in
  Alcotest.(check bool) "no design stmt" true (bad "port in A\n");
  Alcotest.(check bool) "bad kind" true (bad "design d\ncomp x frobnicator\n");
  Alcotest.(check bool) "unknown comp in join" true
    (bad "design d\nport in A\njoin A nothere.P\n")

let test_kind_spec_roundtrip () =
  let kinds =
    [
      T.Gate (T.Xnor, 4);
      T.Multiplexor { bits = 3; inputs = 4; enable = true };
      T.Decoder { bits = 2; enable = false };
      T.Comparator { bits = 4; fns = [ T.Eq; T.Le ] };
      T.Logic_unit { bits = 2; fn = T.Or; inputs = 3 };
      T.Arith_unit { bits = 8; fns = [ T.Add; T.Sub ]; mode = T.Lookahead };
      T.Register
        { bits = 4; kind = T.Latch; fns = [ T.Load; T.Shift_left ];
          controls = [ T.Set; T.Enable ]; inverting = true };
      T.Counter
        { bits = 6; fns = [ T.Count_load; T.Count_down ];
          controls = [ T.Reset ] };
      T.Constant T.Vdd;
      T.Macro "E_OR3";
      T.Instance "SUB1";
    ]
  in
  List.iter
    (fun k ->
      let spec = Milo_netlist.Writer.kind_spec k in
      let text = Printf.sprintf "design t\ncomp x %s\n" spec in
      let d = Milo_netlist.Parser.of_string text in
      let c = D.find_comp d "x" in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %s" spec)
        (T.kind_name k) (T.kind_name c.D.kind))
    kinds

let test_stats () =
  let case = Milo_designs.Suite.design1 () in
  let d = case.Milo_designs.Suite.case_design in
  let hist = Milo_netlist.Stats.kind_histogram d in
  Alcotest.(check bool) "histogram nonempty" true (hist <> []);
  Alcotest.(check bool) "gate equiv positive" true
    (Milo_netlist.Stats.two_input_equiv d > 0);
  let resolve = Milo_library.Technology.resolver (Util.generic ()) in
  Alcotest.(check bool) "max fanout sane" true
    (Milo_netlist.Stats.max_fanout ~resolve d >= 1)

let () =
  Alcotest.run "netlist"
    [
      ( "types",
        [
          Alcotest.test_case "pins_of_kind" `Quick test_pins_of_kind;
          Alcotest.test_case "kind names unique" `Quick test_kind_name_unique;
        ] );
      ( "design",
        [
          Alcotest.test_case "basics" `Quick test_design_basic;
          Alcotest.test_case "check multiple drivers" `Quick
            test_check_catches_multiple_drivers;
        ] );
      ( "undo",
        [
          Alcotest.test_case "scripted" `Quick test_undo_simple;
          prop_undo_random;
          Alcotest.test_case "ids handed back" `Quick test_undo_counters;
        ]
      );
      ( "memos",
        [
          prop_memos_match_fresh_walk;
          Alcotest.test_case "listings follow every edit" `Quick
            test_listings_follow_edits;
        ] );
      ( "text-format",
        [
          Alcotest.test_case "design round-trip" `Quick test_roundtrip;
          Alcotest.test_case "parser errors" `Quick test_parser_errors;
          Alcotest.test_case "kind specs" `Quick test_kind_spec_roundtrip;
        ] );
      ("stats", [ Alcotest.test_case "basics" `Quick test_stats ]);
    ]

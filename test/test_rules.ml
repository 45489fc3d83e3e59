(* Rule engine tests: soundness of every critic rule (function
   preservation), apply-then-undo identity, OPS conflict resolution,
   SOCRATES lookahead, cleanup fixpoint. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule

let all_rules () =
  Milo_critic.Critic.logic @ Milo_critic.Critic.timing
  @ Milo_critic.Critic.area @ Milo_critic.Critic.power
  @ Milo_critic.Critic.electric @ Milo_critic.Critic.cleanup

(* Every rule application on mapped random logic preserves function. *)
let test_rule_soundness () =
  let env_ecl = Util.env_ecl () in
  List.iter
    (fun seed ->
      let src = Milo_designs.Workload.random_logic ~gates:30 ~seed () in
      let target = Milo_techmap.Table_map.ecl_target () in
      let reference = Milo_techmap.Table_map.map_design target src in
      List.iter
        (fun (r : R.t) ->
          let d = D.copy reference in
          let ctx = Util.ctx_for (Util.ecl ()) d in
          let rec exhaust n =
            if n > 25 then ()
            else
              let sites = r.R.find ctx in
              let fired =
                List.exists
                  (fun s ->
                    R.site_alive ctx s && r.R.apply ctx s (D.new_log ()))
                  sites
              in
              if fired then exhaust (n + 1)
          in
          exhaust 0;
          let res =
            Milo_sim.Equiv.combinational env_ecl reference env_ecl d
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s sound on seed %d: %s" r.R.rule_name seed
               (Format.asprintf "%a" Milo_sim.Equiv.pp_result res))
            true
            (Milo_sim.Equiv.is_equivalent res))
        (all_rules ()))
    [ 3; 11 ]

(* Apply + undo is the structural identity for every rule and site. *)
let test_apply_undo_identity () =
  let src = Milo_designs.Workload.random_logic ~gates:40 ~seed:7 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let snapshot = D.copy d in
  List.iter
    (fun (r : R.t) ->
      List.iter
        (fun site ->
          let log = D.new_log () in
          ignore (r.R.apply ctx site log);
          D.undo d log;
          Alcotest.(check bool)
            (Printf.sprintf "%s undo identity (%s)" r.R.rule_name site.R.descr)
            true
            (D.equal_structure snapshot d))
        (r.R.find ctx))
    (all_rules ())

let test_micro_rules_sound () =
  (* Microarchitecture rules preserve sequential behaviour of the
     accumulator and datapath designs. *)
  let env = Util.env_gen () in
  List.iter
    (fun design ->
      List.iter
        (fun (r : R.t) ->
          let d = D.copy design in
          let ctx =
            R.make_context (Util.generic ())
              (Milo_compilers.Gate_comp.generic_set (Util.generic ()))
              d
          in
          let fired =
            List.exists
              (fun s -> r.R.apply ctx s (D.new_log ()))
              (r.R.find ctx)
          in
          if fired then begin
            let res = Milo_sim.Equiv.sequential ~cycles:48 ~runs:3 env design env d in
            Alcotest.(check bool)
              (Printf.sprintf "%s sound on %s: %s" r.R.rule_name (D.name design)
                 (Format.asprintf "%a" Milo_sim.Equiv.pp_result res))
              true
              (Milo_sim.Equiv.is_equivalent res)
          end)
        Milo_critic.Critic.micro)
    [
      Milo_designs.Suite.accumulator ~bits:4 ();
      Milo_designs.Suite.accumulator ~bits:8 ();
      (Milo_designs.Suite.design6 ()).Milo_designs.Suite.case_design;
      (Milo_designs.Suite.design7 ()).Milo_designs.Suite.case_design;
    ]

let test_figure14_rule_fires () =
  (* The headline microarchitecture rule: adder+register -> counter. *)
  let d = Milo_designs.Suite.accumulator ~bits:8 () in
  let ctx =
    R.make_context (Util.generic ())
      (Milo_compilers.Gate_comp.generic_set (Util.generic ()))
      d
  in
  let r = Milo_critic.Micro_critic.adder_register_to_counter in
  let sites = r.R.find ctx in
  Alcotest.(check int) "one site" 1 (List.length sites);
  Alcotest.(check bool) "applies" true
    (r.R.apply ctx (List.hd sites) (D.new_log ()));
  (* the design now contains a counter, no arith unit *)
  let has_counter =
    List.exists
      (fun (c : D.comp) ->
        match c.D.kind with T.Counter _ -> true | _ -> false)
      (D.comps d)
  in
  let has_adder =
    List.exists
      (fun (c : D.comp) ->
        match c.D.kind with T.Arith_unit _ -> true | _ -> false)
      (D.comps d)
  in
  Alcotest.(check bool) "counter present" true has_counter;
  Alcotest.(check bool) "adder gone" false has_adder;
  Util.check_equiv ~seq:true (Util.env_gen ())
    (Milo_designs.Suite.accumulator ~bits:8 ())
    (Util.env_gen ()) d

let test_ornor_share_fires () =
  (* An OR and a NOR over the same inputs fuse into the dual-output
     E_ORNOR macro. *)
  let d = D.create "dual" in
  let a = D.add_port d "A" T.Input in
  let b = D.add_port d "B" T.Input in
  let y = D.add_port d "Y" T.Output in
  let yn = D.add_port d "YN" T.Output in
  let og = D.add_comp d (T.Macro "E_OR2") in
  let ng = D.add_comp d (T.Macro "E_NOR2") in
  D.connect d og "A0" a;
  D.connect d og "A1" b;
  D.connect d og "Y" y;
  D.connect d ng "A0" b;
  D.connect d ng "A1" a;
  D.connect d ng "Y" yn;
  let reference = D.copy d in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let r =
    List.find (fun (r : R.t) -> r.R.rule_name = "ornor-share")
      Milo_critic.Critic.area
  in
  (match r.R.find ctx with
  | [ site ] ->
      Alcotest.(check bool) "applies" true (r.R.apply ctx site (D.new_log ()))
  | sites -> Alcotest.failf "expected one site, got %d" (List.length sites));
  Alcotest.(check int) "one macro left" 1 (D.num_comps d);
  (match (List.hd (D.comps d)).D.kind with
  | T.Macro "E_ORNOR2" -> ()
  | k -> Alcotest.failf "unexpected kind %s" (T.kind_name k));
  Util.check_equiv (Util.env_ecl ()) reference (Util.env_ecl ()) d

let test_cleanup_fixpoint () =
  (* A double-inverter chain plus dead gate cleans to nothing extra. *)
  let d = D.create "dirty" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let i1 = D.add_comp d (T.Macro "E_INV") in
  let i2 = D.add_comp d (T.Macro "E_INV") in
  let dead = D.add_comp d (T.Macro "E_OR2") in
  let n1 = D.new_net d and n2 = D.new_net d in
  D.connect d i1 "A0" a;
  D.connect d i1 "Y" n1;
  D.connect d i2 "A0" n1;
  D.connect d i2 "Y" n2;
  let buf = D.add_comp d (T.Macro "E_BUF") in
  D.connect d buf "A0" n2;
  D.connect d buf "Y" y;
  D.connect d dead "A0" a;
  D.connect d dead "A1" a;
  let dn = D.new_net d in
  D.connect d dead "Y" dn;
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let log = D.new_log () in
  Milo_rules.Engine.run_cleanups ctx Milo_critic.Critic.cleanup log;
  (* everything but a driver for Y should be gone *)
  Alcotest.(check bool) "shrunk to <= 1 comp" true (D.num_comps d <= 1)

let test_ops_engine () =
  (* The strictly rule-based engine reaches quiescence and respects
     refraction (no infinite loop on a rule that reports success without
     changing anything useful). *)
  let src = Milo_designs.Workload.random_logic ~gates:25 ~seed:13 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let cycles = Milo_rules.Engine.ops_run ctx (Milo_critic.Critic.logic @ Milo_critic.Critic.cleanup) in
  Alcotest.(check bool) "terminates" true (cycles < 2000);
  (* result still equivalent *)
  let reference = Milo_techmap.Table_map.map_design target src in
  Util.check_equiv (Util.env_ecl ()) reference (Util.env_ecl ()) d

let test_ops_incremental_matches_naive () =
  (* The Rete-style incremental matcher runs the naive matcher's cycle
     over a conflict set it keeps, so it fires exactly what the naive
     matcher fires: the same sites in the same order, each applying or
     not alike, and structurally the same design, which stays
     equivalent to its input.  [ops_run] counts its cycles and
     [ops_run_incremental] the firings that applied.  On mapped random
     logic, where every firing applies, and on LSS's NAND/NOR level,
     where the cleanups fire and some firings do not apply. *)
  let same label tech rules input =
    let run engine =
      let fired = ref [] in
      let logged =
        List.map
          (fun (r : R.t) ->
            {
              r with
              R.apply =
                (fun ctx (site : R.site) log ->
                  let ok = r.R.apply ctx site log in
                  fired := (r.R.rule_name, site.R.site_comps, ok) :: !fired;
                  ok);
            })
          rules
      in
      let d = input () in
      let n = engine (Util.ctx_for tech d) logged in
      (n, List.rev !fired, d)
    in
    let cycles, fired, naive = run Milo_rules.Engine.ops_run in
    let applied, fired', incr = run Milo_rules.Engine.ops_run_incremental in
    Alcotest.(check bool) (label ^ ": same firings, in order") true (fired = fired');
    Alcotest.(check int) (label ^ ": naive counts cycles") (List.length fired) cycles;
    Alcotest.(check int)
      (label ^ ": incremental counts applied firings")
      (List.length (List.filter (fun (_, _, ok) -> ok) fired'))
      applied;
    Alcotest.(check bool) (label ^ ": same design") true
      (D.equal_structure naive incr);
    incr
  in
  let target = Milo_techmap.Table_map.ecl_target () in
  List.iter
    (fun (gates, seed) ->
      let src = Milo_designs.Workload.random_logic ~gates ~seed () in
      let mapped () = Milo_techmap.Table_map.map_design target src in
      let incr =
        same
          (Printf.sprintf "%d gates, seed %d" gates seed)
          (Util.ecl ())
          (Milo_critic.Critic.logic @ Milo_critic.Critic.cleanup)
          mapped
      in
      Util.check_equiv (Util.env_ecl ()) (mapped ()) (Util.env_ecl ()) incr)
    [ (80, 19); (200, 7); (400, 7) ];
  List.iter
    (fun (case : Milo_designs.Suite.case) ->
      let nand_nor () =
        let db = Milo_compilers.Database.create () in
        Milo_compilers.Compile.expand_design db (Util.generic ())
          case.Milo_designs.Suite.case_design
        |> Milo_compilers.Database.flatten db
        |> Milo_baselines.Lss.to_and_or |> Milo_baselines.Lss.to_nand_nor
      in
      let incr =
        same
          (case.Milo_designs.Suite.case_name ^ " NAND/NOR")
          (Util.generic ())
          Milo_critic.Critic.(logic @ area @ cleanup)
          nand_nor
      in
      Util.check_equiv (Util.env_gen ()) (nand_nor ()) (Util.env_gen ()) incr)
    Milo_designs.Suite.[ design1 (); design2 () ]

let test_focused_find_order () =
  (* A focus covering every component lists exactly the sites of an
     unfocused scan, in the same order, for every built-in rule: the
     focused scan visits components in id order. *)
  let find ctx (r : R.t) =
    match r.R.find ctx with
    | sites -> Ok sites
    | exception e -> Error (Printexc.to_string e)
  in
  let check what ctx rules =
    let all = Hashtbl.create 64 in
    List.iter (fun (c : D.comp) -> Hashtbl.replace all c.D.id ()) (D.comps ctx.R.design);
    List.iter
      (fun (r : R.t) ->
        ctx.R.focus := None;
        let full = find ctx r in
        ctx.R.focus := Some all;
        let focused = find ctx r in
        ctx.R.focus := None;
        Alcotest.(check bool)
          (Printf.sprintf "%s: focused %s = full scan" what r.R.rule_name)
          true (full = focused))
      rules
  in
  List.iter
    (fun (case : Milo_designs.Suite.case) ->
      let name = case.Milo_designs.Suite.case_name in
      List.iter
        (fun tech ->
          let target = Milo.Flow.target_of tech in
          let mapped, _ =
            Milo.Flow.human_baseline ~technology:tech case.Milo_designs.Suite.case_design
          in
          check
            (name ^ "/" ^ Milo.Flow.technology_name tech)
            (R.make_context target.Milo_techmap.Table_map.tech
               target.Milo_techmap.Table_map.set mapped)
            (all_rules ()))
        [ Milo.Flow.Ecl; Milo.Flow.Cmos ];
      check (name ^ "/micro")
        (R.make_context (Util.generic ())
           (Milo_compilers.Gate_comp.generic_set (Util.generic ()))
           (D.copy case.Milo_designs.Suite.case_design))
        Milo_critic.Critic.micro)
    (Milo_designs.Suite.all ())

let test_ops_determinism () =
  (* Conflict-set ties (same recency, same specificity) break by the
     rule's position in the supplied list — stable across runs and
     reorderings, not hash order. *)
  let fired = ref [] in
  let mk name =
    R.make ~name ~cls:R.Logic
      ~find:(fun ctx ->
        List.map
          (fun (c : D.comp) -> R.site ~comps:[ c.D.id ] name)
          (R.scan_comps ctx))
      ~apply:(fun _ _ _ ->
        fired := name :: !fired;
        true) ()
  in
  let ra = mk "det-a" and rb = mk "det-b" and rc = mk "det-c" in
  let base = D.create "det" in
  let a = D.add_port base "A" T.Input in
  let y = D.add_port base "Y" T.Output in
  let i1 = D.add_comp base (T.Macro "E_INV") in
  let i2 = D.add_comp base (T.Macro "E_INV") in
  let n = D.new_net base in
  D.connect base i1 "A0" a;
  D.connect base i1 "Y" n;
  D.connect base i2 "A0" n;
  D.connect base i2 "Y" y;
  let run rules =
    fired := [];
    let d = D.copy base in
    let ctx = Util.ctx_for (Util.ecl ()) d in
    ignore (Milo_rules.Engine.ops_run ctx rules);
    List.rev !fired
  in
  let s1 = run [ ra; rb; rc ] in
  let s2 = run [ ra; rb; rc ] in
  Alcotest.(check (list string)) "identical firing sequences" s1 s2;
  (match s1 with
  | first :: _ -> Alcotest.(check string) "first-listed wins ties" "det-a" first
  | [] -> Alcotest.fail "nothing fired");
  match run [ rb; ra; rc ] with
  | first :: _ -> Alcotest.(check string) "order follows the list" "det-b" first
  | [] -> Alcotest.fail "nothing fired"

let test_cleanup_budget_accounting () =
  (* The cleanup fixpoint bound charges successful applications only:
     dead sites and refused applies don't burn it. *)
  let d = D.create "bud" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let c = D.add_comp d (T.Macro "E_BUF") in
  D.connect d c "A0" a;
  D.connect d c "Y" y;
  let dead_calls = ref 0 and refusals = ref 0 and applies = ref 0 in
  let dead =
    R.make ~name:"bud-dead" ~cls:R.Cleanup
      ~find:(fun _ -> List.init 50 (fun i -> R.site ~comps:[ 1000 + i ] "dead"))
      ~apply:(fun _ _ _ ->
        incr dead_calls;
        false) ()
  in
  let refuse =
    R.make ~name:"bud-refuse" ~cls:R.Cleanup
      ~find:(fun _ -> [ R.site ~comps:[ c ] "refuse" ])
      ~apply:(fun _ _ _ ->
        incr refusals;
        false) ()
  in
  let count =
    R.make ~name:"bud-count" ~cls:R.Cleanup
      ~find:(fun _ -> [ R.site ~comps:[ c ] "count" ])
      ~apply:(fun _ _ _ ->
        incr applies;
        true) ()
  in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let log = D.new_log () in
  Milo_rules.Engine.run_cleanups ctx [ dead; refuse; count ] log;
  (* budget = 4 * (1 + num_comps) = 8; one successful application per
     pass, so the counting rule fires exactly 8 times regardless of the
     dead and refusing rules scanned ahead of it. *)
  Alcotest.(check int) "dead sites never applied" 0 !dead_calls;
  Alcotest.(check bool) "refusing rule was scanned" true (!refusals > 0);
  Alcotest.(check int) "applications = budget" 8 !applies

let test_search_exec_abort () =
  (* A winning sequence that goes stale mid-execution aborts at the
     first failed re-application instead of running later moves against
     a state they were never evaluated on. *)
  let d = D.create "stale" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let c = D.add_comp d (T.Macro "E_INV") in
  D.connect d c "A0" a;
  D.connect d c "Y" y;
  (* step1 (INV -> BUF) succeeds exactly twice: once in the gain probe,
     once in the tree expansion.  Its re-application at execution time
     fails, so step2 — whose precondition is step1's edit — must not
     run. *)
  let step1_left = ref 2 in
  let step2_stale = ref false in
  let sites_of_kind kind name ctx =
    List.filter_map
      (fun (cp : D.comp) ->
        if cp.D.kind = T.Macro kind then Some (R.site ~comps:[ cp.D.id ] name)
        else None)
      (R.scan_comps ctx)
  in
  let step1 =
    R.make ~name:"stale-step1" ~cls:R.Logic
      ~find:(sites_of_kind "E_INV" "step1")
      ~apply:(fun ctx site log ->
        !step1_left > 0
        && begin
             decr step1_left;
             D.set_kind ~log ctx.R.design
               (List.hd site.R.site_comps)
               (T.Macro "E_BUF");
             true
           end) ()
  in
  let step2 =
    R.make ~name:"stale-step2" ~cls:R.Logic
      ~find:(sites_of_kind "E_BUF" "step2")
      ~apply:(fun ctx site log ->
        let cid = List.hd site.R.site_comps in
        (match D.comp_opt ctx.R.design cid with
        | Some cp when cp.D.kind = T.Macro "E_BUF" -> ()
        | _ ->
            step2_stale := true;
            failwith "stale-step2 executed on a stale state");
        D.remove_comp ~log ctx.R.design cid;
        true) ()
  in
  let cost_factory (ctx : R.context) () =
    let d = ctx.R.design in
    if D.num_comps d = 0 then 5.0
    else
      match D.comp_opt d c with
      | Some { D.kind = T.Macro "E_BUF"; _ } -> 9.0
      | _ -> 10.0
  in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let params =
    { Milo_rules.Search.b = 2; d_max = 2; d_app = 2; n_hood = 0;
      delta_cost = 100.0 }
  in
  let gain =
    Milo_rules.Search.step ~params ~cost_factory ctx ~cleanups:[]
      [ step1; step2 ]
  in
  Alcotest.(check bool) "search found the sequence" true (gain <> None);
  Alcotest.(check bool) "stale move never executed" false !step2_stale;
  Alcotest.(check bool) "step2 not quarantined" false
    (Milo_rules.Engine.is_quarantined ctx.R.session "stale-step2");
  Alcotest.(check int) "design intact" 1 (D.num_comps d);
  match D.comp_opt d c with
  | Some cp ->
      Alcotest.(check bool) "kind restored" true (cp.D.kind = T.Macro "E_INV")
  | None -> Alcotest.fail "component gone"

let test_greedy_improves_cost () =
  let src = Milo_designs.Workload.random_logic ~gates:60 ~seed:21 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let env name = Milo_library.Technology.find (Util.ecl ()) name in
  let cost_factory (ctx : R.context) () =
    Milo_estimate.Estimate.area env ctx.R.design
  in
  let before = cost_factory ctx () in
  let apps =
    Milo_rules.Engine.greedy_pass
      ~cost:(Milo_rules.Engine.Measured cost_factory)
      ctx ~cleanups:Milo_critic.Critic.cleanup
      (Milo_critic.Critic.logic @ Milo_critic.Critic.area)
  in
  let after = cost_factory ctx () in
  Alcotest.(check bool) "applications found" true (List.length apps > 0);
  Alcotest.(check bool) "cost decreased" true (after < before);
  List.iter
    (fun (a : Milo_rules.Engine.application) ->
      Alcotest.(check bool) "positive gains" true (a.Milo_rules.Engine.gain > 0.0))
    apps

(* A cleanup whose [find] raises is quarantined once, on the
   coordinator, when the greedy step reads its site list: its first
   failure's message, a count of 1, and the step goes on without it. *)
let test_raising_cleanup_find () =
  let src = Milo_designs.Workload.random_logic ~gates:40 ~seed:33 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let env name = Milo_library.Technology.find (Util.ecl ()) name in
  let cost (ctx : R.context) () = Milo_estimate.Estimate.area env ctx.R.design in
  let broken =
    R.make ~local:true ~name:"broken-cleanup" ~cls:R.Cleanup
      ~find:(fun _ -> failwith "boom")
      ~apply:(fun _ _ _ -> false) ()
  in
  (match
     Milo_rules.Engine.greedy_step ~exec:(Milo_parallel.Exec.inline ())
       ~cost:(Milo_rules.Engine.Measured cost) ctx
       ~cleanups:(broken :: Milo_critic.Critic.cleanup)
       (Milo_critic.Critic.logic @ Milo_critic.Critic.area)
   with
  | Milo_rules.Engine.Committed _ -> ()
  | Milo_rules.Engine.Refused | Milo_rules.Engine.Quiescent ->
      Alcotest.fail "no greedy step");
  Alcotest.(check (list (pair string int)))
    "quarantined once" [ ("broken-cleanup", 1) ]
    (Milo_rules.Engine.quarantined ctx.R.session);
  Alcotest.(check (list (pair string string)))
    "with its own failure" [ ("broken-cleanup", {|Failure("boom")|}) ]
    (Milo_rules.Engine.quarantined_errors ctx.R.session)

let test_search_lookahead () =
  let src = Milo_designs.Workload.random_logic ~gates:40 ~seed:33 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let reference = D.copy d in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let env name = Milo_library.Technology.find (Util.ecl ()) name in
  let cost_factory (ctx : R.context) () =
    Milo_estimate.Estimate.area env ctx.R.design
  in
  let stats = { Milo_rules.Search.nodes = 0; evals = 0 } in
  let gain =
    Milo_rules.Search.run
      ~params:{ Milo_rules.Search.b = 2; d_max = 2; d_app = 1; n_hood = 0; delta_cost = 5.0 }
      ~stats ~cost_factory ctx ~cleanups:Milo_critic.Critic.cleanup
      (Milo_critic.Critic.logic @ Milo_critic.Critic.area)
  in
  Alcotest.(check bool) "non-negative gain" true (gain >= 0.0);
  Alcotest.(check bool) "search explored nodes" true (stats.Milo_rules.Search.nodes > 0);
  Util.check_equiv (Util.env_ecl ()) reference (Util.env_ecl ()) d

(* A rule whose [find] raises inside the search tree is quarantined
   under its own name, and the search goes on without it: the raising
   find matches nothing, whatever branch it was called in. *)
let test_search_find_fault () =
  let src = Milo_designs.Workload.random_logic ~gates:40 ~seed:33 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let env name = Milo_library.Technology.find (Util.ecl ()) name in
  let cost_factory (ctx : R.context) () =
    Milo_estimate.Estimate.area env ctx.R.design
  in
  let calls = ref 0 in
  let flaky =
    R.make ~name:"flaky-find" ~cls:R.Area
      ~find:(fun _ ->
        incr calls;
        if !calls = 1 then [] else failwith "boom")
      ~apply:(fun _ _ _ -> false) ()
  in
  let gain =
    Milo_rules.Search.step
      ~params:{ Milo_rules.Search.b = 2; d_max = 2; d_app = 1; n_hood = 0; delta_cost = 5.0 }
      ~cost_factory ctx ~cleanups:Milo_critic.Critic.cleanup
      (Milo_critic.Critic.logic @ Milo_critic.Critic.area @ [ flaky ])
  in
  Alcotest.(check bool) "step still gains" true (gain <> None);
  Alcotest.(check (list (pair string string)))
    "only the raising rule, with its own failure"
    [ ("flaky-find", {|Failure("boom")|}) ]
    (Milo_rules.Engine.quarantined_errors ctx.R.session)

(* A search past the budget's deadline is cancelled at its next poll
   and ends the step with no gain.  The search task stands for no one
   rule, so the deadline quarantines nothing, and the design is left
   as it was. *)
let test_search_deadline () =
  let src = Milo_designs.Workload.random_logic ~gates:40 ~seed:33 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let reference = D.copy d in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let looping =
    R.make ~name:"looping" ~cls:R.Area
      ~find:(fun ctx ->
        List.map (fun (c : D.comp) -> R.site ~comps:[ c.D.id ] "loop")
          (R.scan_comps ctx))
      ~apply:(fun _ _ _ ->
        while true do
          Milo_parallel.Pool.poll ()
        done;
        false) ()
  in
  let gain =
    Milo_rules.Search.step ~budget:(Milo_rules.Budget.make ~timeout:0.2 ())
      ~cost_factory:(fun ctx () -> float_of_int (D.num_comps ctx.R.design))
      ctx ~cleanups:[] [ looping ]
  in
  Alcotest.(check bool) "no gain" true (gain = None);
  Alcotest.(check (list (pair string int))) "nothing quarantined" []
    (Milo_rules.Engine.quarantined ctx.R.session);
  Alcotest.(check bool) "design untouched" true (D.equal_structure reference d)

let test_neighbourhood () =
  let src = Milo_designs.Workload.random_logic ~gates:30 ~seed:5 () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let d = Milo_techmap.Table_map.map_design target src in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  match D.comps d with
  | c :: _ ->
      let n0 = Milo_rules.Engine.neighbourhood ctx [ c.D.id ] 0 in
      let n2 = Milo_rules.Engine.neighbourhood ctx [ c.D.id ] 2 in
      Alcotest.(check int) "radius 0 = self" 1 (Hashtbl.length n0);
      Alcotest.(check bool) "radius 2 grows" true
        (Hashtbl.length n2 >= Hashtbl.length n0)
  | [] -> Alcotest.fail "empty design"

let test_metarule_params () =
  let p1 = Milo_rules.Metarules.params_for ~cls:R.Logic ~phase:Milo_rules.Metarules.Polishing in
  Alcotest.(check int) "powerful rules: no lookahead" 1 p1.Milo_rules.Search.d_max;
  let p2 =
    Milo_rules.Metarules.params_for ~cls:R.Area
      ~phase:Milo_rules.Metarules.Recovering_area
  in
  Alcotest.(check bool) "area rules: deeper" true (p2.Milo_rules.Search.d_max > 1);
  Alcotest.(check bool) "full > metarule depth" true
    (Milo_rules.Metarules.fixed_full.Milo_rules.Search.d_max
     >= p2.Milo_rules.Search.d_max)

let () =
  Alcotest.run "rules"
    [
      ( "soundness",
        [
          Alcotest.test_case "logic-level rules" `Slow test_rule_soundness;
          Alcotest.test_case "micro rules" `Slow test_micro_rules_sound;
          Alcotest.test_case "apply+undo identity" `Quick test_apply_undo_identity;
        ] );
      ( "figure-14",
        [ Alcotest.test_case "adder+register -> counter" `Quick test_figure14_rule_fires ]
      );
      ( "engine",
        [
          Alcotest.test_case "ornor dual-output share" `Quick
            test_ornor_share_fires;
          Alcotest.test_case "cleanup fixpoint" `Quick test_cleanup_fixpoint;
          Alcotest.test_case "ops recognize-act" `Quick test_ops_engine;
          Alcotest.test_case "incremental matches naive" `Quick
            test_ops_incremental_matches_naive;
          Alcotest.test_case "ops tie-break determinism" `Quick
            test_ops_determinism;
          Alcotest.test_case "focused find keeps scan order" `Quick
            test_focused_find_order;
          Alcotest.test_case "cleanup budget accounting" `Quick
            test_cleanup_budget_accounting;
          Alcotest.test_case "greedy improves" `Quick test_greedy_improves_cost;
          Alcotest.test_case "raising cleanup find quarantined once" `Quick
            test_raising_cleanup_find;
        ] );
      ( "search",
        [
          Alcotest.test_case "lookahead" `Quick test_search_lookahead;
          Alcotest.test_case "stale exec aborts" `Quick test_search_exec_abort;
          Alcotest.test_case "raising find quarantines its rule" `Quick
            test_search_find_fault;
          Alcotest.test_case "deadline ends the step" `Quick
            test_search_deadline;
          Alcotest.test_case "neighbourhood" `Quick test_neighbourhood;
          Alcotest.test_case "metarule params" `Quick test_metarule_params;
        ] );
    ]

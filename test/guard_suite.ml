(* Semantic-guard suite — the guard subsystem's tier-1 gate.

   - every planted miscompiling rule (wrong polarity, dropped fanin,
     swapped mux arms) applied under a [Full] rule guard is caught by
     the cone re-simulation, rolled back exactly, and quarantined with
     reason [Miscompiled] — never committed;
   - a sound rule (symmetric-input swap) passes the same check and is
     never quarantined (no false positives);
   - each planted rule's quarantine message (the changed net and its
     witness assignment) is pinned on the workload design;
   - a greedy pass whose cost function rewards the miscompile still
     ends with the design untouched and equivalent to its snapshot;
   - a refused winner does not end the pass: a sound rule's site is
     still committed after the rewarded miscompile is quarantined;
   - the [Sampled] tier checks the first application of each rule, and
     skips checking entirely once the budget is exhausted;
   - off-the-books semantic corruption injected before the compile,
     techmap and optimize stages degrades a [Full]-guarded flow to
     [Partial] with a [Guard.Miscompile] error at that stage;
   - a [Full]-guarded flow over every suite design, 150-gate random
     logic and every parseable examples/ input completes with zero
     stage or rule mismatches and no rule quarantined. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Rule = Milo_rules.Rule
module Engine = Milo_rules.Engine
module Budget = Milo_rules.Budget
module Guard = Milo_guard.Guard
module Flow = Milo.Flow
module Suite = Milo_designs.Suite
module Faults = Milo_faults

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let generic_ctx design =
  let lib = Milo_library.Generic.get () in
  Rule.make_context lib (Milo_compilers.Gate_comp.generic_set lib) design

let generic_env () =
  Milo_sim.Simulator.env_of_techs [ Milo_library.Generic.get () ]

let generic_is_seq =
  Flow.seq_classifier [ Milo_library.Generic.get () ]

(* --- Tiny generic-macro designs for the planted rules ------------------- *)

(* A -> INV -> t -> INV -> Y: two polarity-rule sites. *)
let inv_design () =
  let d = D.create "inv2" in
  let a = D.add_port d "A" T.Input in
  let y = D.add_port d "Y" T.Output in
  let t = D.new_net ~name:"t" d in
  let i1 = D.add_comp ~name:"i1" d (T.Macro "INV") in
  let i2 = D.add_comp ~name:"i2" d (T.Macro "INV") in
  D.connect d i1 "A0" a;
  D.connect d i1 "Y" t;
  D.connect d i2 "A0" t;
  D.connect d i2 "Y" y;
  d

(* Y = AND2(A, B): a drop-fanin site (two inputs on distinct nets). *)
let and_design () =
  let d = D.create "and2" in
  let a = D.add_port d "A" T.Input in
  let b = D.add_port d "B" T.Input in
  let y = D.add_port d "Y" T.Output in
  let g = D.add_comp ~name:"g" d (T.Macro "AND2") in
  D.connect d g "A0" a;
  D.connect d g "A1" b;
  D.connect d g "Y" y;
  d

(* Y = MUX2(D0, D1, S): a swap-mux site. *)
let mux_design () =
  let d = D.create "mux" in
  let d0 = D.add_port d "D0IN" T.Input in
  let d1 = D.add_port d "D1IN" T.Input in
  let s = D.add_port d "S" T.Input in
  let y = D.add_port d "Y" T.Output in
  let m = D.add_comp ~name:"m" d (T.Macro "MUX2") in
  D.connect d m "D0" d0;
  D.connect d m "D1" d1;
  D.connect d m "S0" s;
  D.connect d m "Y" y;
  d

(* Y = MUX2(INV(AND2(A,B)), C, S): one site for each planted rule. *)
let workload_design () =
  let d = D.create "workload" in
  let a = D.add_port d "A" T.Input in
  let b = D.add_port d "B" T.Input in
  let c = D.add_port d "C" T.Input in
  let s = D.add_port d "S" T.Input in
  let y = D.add_port d "Y" T.Output in
  let t1 = D.new_net ~name:"t1" d in
  let t2 = D.new_net ~name:"t2" d in
  let g = D.add_comp ~name:"g" d (T.Macro "AND2") in
  let i = D.add_comp ~name:"i" d (T.Macro "INV") in
  let m = D.add_comp ~name:"m" d (T.Macro "MUX2") in
  D.connect d g "A0" a;
  D.connect d g "A1" b;
  D.connect d g "Y" t1;
  D.connect d i "A0" t1;
  D.connect d i "Y" t2;
  D.connect d m "D0" t2;
  D.connect d m "D1" c;
  D.connect d m "S0" s;
  D.connect d m "Y" y;
  d

(* Symmetric-input swap on an AND2: restructures the site (so the guard
   does re-check it) without changing its function. *)
let sound_swap_rule () =
  let arms ctx (c : D.comp) =
    match c.D.kind with
    | T.Macro "AND2" -> (
        match
          ( D.connection ctx.Rule.design c.D.id "A0",
            D.connection ctx.Rule.design c.D.id "A1" )
        with
        | Some n0, Some n1 when n0 <> n1 -> Some (n0, n1)
        | _ -> None)
    | _ -> None
  in
  Rule.make ~name:"sound-swap" ~cls:Rule.Logic
    ~find:(fun ctx ->
      List.filter_map
        (fun (c : D.comp) ->
          match arms ctx c with
          | Some _ -> Some (Rule.site ~comps:[ c.D.id ] "symmetric swap")
          | None -> None)
        (Rule.scan_comps ctx))
    ~apply:(fun ctx site log ->
      match site.Rule.site_comps with
      | cid :: _ -> (
          match D.comp_opt ctx.Rule.design cid with
          | Some c -> (
              match arms ctx c with
              | Some (n0, n1) ->
                  D.connect ~log ctx.Rule.design cid "A0" n1;
                  D.connect ~log ctx.Rule.design cid "A1" n0;
                  true
              | None -> false)
          | None -> false)
      | [] -> false) ()

let reason_str = function
  | Some r -> Milo_rules.Engine.reason_name r
  | None -> "(not quarantined)"

(* --- Direct guarded_apply: every planted rule caught -------------------- *)

let direct_catch name make_rule make_design =
  let d = make_design () in
  let before = D.copy d in
  let ctx = generic_ctx d in
  let session = ctx.Rule.session in
  Engine.set_rule_guard session Guard.Full;
  let r = make_rule () in
  (match r.Rule.find ctx with
  | [] -> fail "%s: planted rule found no site" name
  | site :: _ ->
      let log = D.new_log () in
      let ok = Engine.guarded_apply ctx r site log in
      if ok then fail "%s: miscompile committed" name;
      if !log <> [] then fail "%s: edits leaked into the caller's log" name;
      if not (D.equal_structure before d) then
        fail "%s: design not reverted after miscompile" name;
      if not (Engine.is_quarantined session r.Rule.rule_name) then
        fail "%s: rule not quarantined" name;
      (match
         List.assoc_opt r.Rule.rule_name (Engine.quarantined_reasons session)
       with
      | Some Engine.Miscompiled -> ()
      | other -> fail "%s: quarantine reason %s, expected miscompiled" name
                   (reason_str other));
      match Engine.rule_guard_stats session with
      | Some s when s.Guard.rule_mismatches >= 1 ->
          Printf.printf "ok   %s caught, reverted, quarantined [miscompiled]\n"
            name
      | Some _ -> fail "%s: rule_mismatches counter not bumped" name
      | None -> fail "%s: guard stats vanished" name)

(* A sound restructuring passes the identical check: no false positive. *)
let sound_rule_passes () =
  let d = and_design () in
  let before = D.copy d in
  let ctx = generic_ctx d in
  Engine.set_rule_guard ctx.Rule.session Guard.Full;
  let r = sound_swap_rule () in
  (match r.Rule.find ctx with
  | [] -> fail "sound swap: no site found"
  | site :: _ ->
      let log = D.new_log () in
      let ok = Engine.guarded_apply ctx r site log in
      if not ok then fail "sound swap: rejected by the guard";
      if Engine.is_quarantined ctx.Rule.session r.Rule.rule_name then
        fail "sound swap: quarantined (false positive)";
      if D.equal_structure before d then
        fail "sound swap: apply had no effect (vacuous test)";
      match
        Guard.check ~is_seq:generic_is_seq (generic_env ()) before
          (generic_env ()) d
      with
      | None -> Printf.printf "ok   sound rule passes under full guard\n"
      | Some div ->
          fail "sound swap: design diverged (%s)" (Guard.describe div))

(* --- Greedy pass: a rewarded miscompile still cannot land --------------- *)

(* INV costs more than BUF here, so un-guarded the polarity fault would
   look like a strict improvement at every inverter. *)
let inv_cost (ctx : Rule.context) () =
  List.fold_left
    (fun acc (c : D.comp) ->
      acc +. (match c.D.kind with T.Macro "INV" -> 2.0 | _ -> 1.0))
    0.0 (D.comps ctx.Rule.design)

let pass_blocks_miscompile () =
  let d = inv_design () in
  let before = D.copy d in
  let ctx = generic_ctx d in
  Engine.set_rule_guard ctx.Rule.session Guard.Full;
  let apps =
    Engine.greedy_pass ~cost:(Engine.Measured inv_cost) ctx ~cleanups:[]
      [ Faults.polarity_rule () ]
  in
  if apps <> [] then fail "greedy pass: miscompiling rule committed";
  if not (D.equal_structure before d) then
    fail "greedy pass: design mutated by a fully-guarded miscompile";
  match
    List.assoc_opt "fault-polarity" (Engine.quarantined_reasons ctx.Rule.session)
  with
  | Some Engine.Miscompiled ->
      Printf.printf "ok   greedy pass blocked the rewarded miscompile\n"
  | other -> fail "greedy pass: quarantine reason %s, expected miscompiled"
               (reason_str other)

(* Golden quarantine messages: each planted miscompiler, applied at
   every site it finds on the workload design under a [Full] guard, is
   quarantined with exactly this witness — the net that changed and the
   first leaf assignment (in exhaustive order) under which it did. *)
let golden_messages () =
  List.iter2
    (fun (r : Rule.t) expected ->
      let ctx = generic_ctx (workload_design ()) in
      Engine.set_rule_guard ctx.Rule.session Guard.Full;
      List.iter
        (fun site -> ignore (Engine.guarded_apply ctx r site (D.new_log ())))
        (r.Rule.find ctx);
      match Engine.quarantined_errors ctx.Rule.session with
      | [ (name, msg) ] when name = r.Rule.rule_name && msg = expected ->
          Printf.printf "ok   %s: %s\n" name msg
      | got ->
          fail "%s: quarantine messages [%s], want [%s]" r.Rule.rule_name
            (String.concat "; " (List.map (fun (n, m) -> n ^ ": " ^ m) got))
            expected)
    (Faults.miscompiling_rules ())
    [
      "miscompile: net t2 changed function under {A=0, B=0}";
      "miscompile: net t1 changed function under {A=1, B=0}";
      "miscompile: net Y changed function under {A=0, B=0, C=0, S=0}";
    ]

(* A cost every planted rule lowers, each by a different amount:
   inverters (polarity), gates whose first two inputs are distinct nets
   (dropped fanin), and muxes whose D0 arm is an internal net (swapped
   arms). *)
let workload_cost (ctx : Rule.context) () =
  let dsn = ctx.Rule.design in
  List.fold_left
    (fun acc (c : D.comp) ->
      let conn pin = D.connection dsn c.D.id pin in
      acc
      +. (match c.D.kind with T.Macro "INV" -> 4.0 | _ -> 0.0)
      +. (match (conn "A0", conn "A1") with
         | Some a, Some b when a <> b -> 2.0
         | _ -> 0.0)
      +.
      match (c.D.kind, conn "D0") with
      | T.Macro "MUX2", Some n when not (Rule.net_is_port ctx n) -> 1.0
      | _ -> 0.0)
    0.0 (D.comps dsn)

(* All three planted rules loose on one workload, each rewarded by the
   cost: nothing lands, the design stays equivalent to its snapshot,
   all three quarantined.  Candidate evaluations are unguarded oracles,
   so each step's winner is caught at its guarded commit; the pass goes
   on without the quarantined rule, so one pass catches all three. *)
let workload_stays_equivalent () =
  let d = workload_design () in
  let before = D.copy d in
  let ctx = generic_ctx d in
  let session = ctx.Rule.session in
  Engine.set_rule_guard session Guard.Full;
  let apps =
    Engine.greedy_pass ~cost:(Engine.Measured workload_cost) ctx ~cleanups:[]
      (Faults.miscompiling_rules ())
  in
  if apps <> [] then
    fail "workload: %d miscompiling application(s) committed" (List.length apps);
  List.iter
    (fun name ->
      match List.assoc_opt name (Engine.quarantined_reasons session) with
      | Some Engine.Miscompiled -> ()
      | other -> fail "workload: %s reason %s, expected miscompiled" name
                   (reason_str other))
    [ "fault-polarity"; "fault-drop-fanin"; "fault-swap-mux" ];
  match
    Guard.check ~is_seq:generic_is_seq (generic_env ()) before
      (generic_env ()) d
  with
  | None -> Printf.printf "ok   workload equivalent after faulted pass\n"
  | Some div -> fail "workload: diverged from snapshot (%s)"
                  (Guard.describe div)

(* Inverters cost 4 (so the polarity fault, INV -> BUF, gains 3) and an
   AND2 whose first input's net id is below its second's costs 1 more
   (so the sound swap gains 1). *)
let swap_cost (ctx : Rule.context) () =
  let dsn = ctx.Rule.design in
  List.fold_left
    (fun acc (c : D.comp) ->
      acc
      +. (match c.D.kind with T.Macro "INV" -> 4.0 | _ -> 1.0)
      +.
      match (c.D.kind, D.connection dsn c.D.id "A0", D.connection dsn c.D.id "A1") with
      | T.Macro "AND2", Some n0, Some n1 when n0 < n1 -> 1.0
      | _ -> 0.0)
    0.0 (D.comps dsn)

(* A refused winner does not end the pass: the rewarded miscompile wins
   the first step and is caught at its commit, then the sound rule's
   site is committed in the same pass. *)
let pass_continues_past_refused_winner () =
  let d = workload_design () in
  let before = D.copy d in
  let ctx = generic_ctx d in
  let session = ctx.Rule.session in
  Engine.set_rule_guard session Guard.Full;
  let apps =
    Engine.greedy_pass ~cost:(Engine.Measured swap_cost) ctx ~cleanups:[]
      [ Faults.polarity_rule (); sound_swap_rule () ]
  in
  (match List.map (fun (a : Engine.application) -> a.Engine.rule.Rule.rule_name) apps with
  | [ "sound-swap" ] -> ()
  | names ->
      fail "refused winner: committed [%s], expected the sound swap once"
        (String.concat "; " names));
  (match List.assoc_opt "fault-polarity" (Engine.quarantined_reasons session) with
  | Some Engine.Miscompiled -> ()
  | other -> fail "refused winner: polarity reason %s, expected miscompiled"
               (reason_str other));
  if Engine.is_quarantined session "sound-swap" then
    fail "refused winner: sound swap quarantined";
  match
    Guard.check ~is_seq:generic_is_seq (generic_env ()) before
      (generic_env ()) d
  with
  | None -> Printf.printf "ok   a refused winner does not end the pass\n"
  | Some div -> fail "refused winner: diverged from snapshot (%s)"
                  (Guard.describe div)

(* --- Sampled tier ------------------------------------------------------- *)

(* The first application of each rule is always checked: a
   systematically wrong rule is caught immediately even when sampling. *)
let sampled_first_application_checked () =
  let d = inv_design () in
  let before = D.copy d in
  let ctx = generic_ctx d in
  Engine.set_rule_guard ctx.Rule.session Guard.Sampled;
  let r = Faults.polarity_rule () in
  (match r.Rule.find ctx with
  | [] -> fail "sampled: no site found"
  | site :: _ ->
      let ok = Engine.guarded_apply ctx r site (D.new_log ()) in
      if ok then fail "sampled: first miscompile committed";
      if not (D.equal_structure before d) then
        fail "sampled: design not reverted";
      if not (Engine.is_quarantined ctx.Rule.session r.Rule.rule_name) then
        fail "sampled: rule not quarantined on first application"
      else Printf.printf "ok   sampled tier checks the first application\n")

(* An exhausted budget turns the sampled tier off: zero checking
   overhead, the apply commits (and is later caught by a stage guard). *)
let sampled_respects_budget () =
  let d = inv_design () in
  let ctx = generic_ctx d in
  let session = ctx.Rule.session in
  Engine.set_rule_guard session ~budget:(Faults.exhausted_budget ())
    Guard.Sampled;
  let r = Faults.polarity_rule () in
  (match r.Rule.find ctx with
  | [] -> fail "sampled budget: no site found"
  | site :: _ ->
      let ok = Engine.guarded_apply ctx r site (D.new_log ()) in
      if not ok then fail "sampled budget: apply blocked despite exhaustion";
      if Engine.is_quarantined session r.Rule.rule_name then
        fail "sampled budget: quarantined without checking";
      match Engine.rule_guard_stats session with
      | Some s when s.Guard.rule_skipped >= 1 && s.Guard.rule_checks = 0 ->
          Printf.printf "ok   sampled tier skips when the budget is gone\n"
      | Some s -> fail "sampled budget: checks=%d skipped=%d, expected 0/>=1"
                    s.Guard.rule_checks s.Guard.rule_skipped
      | None -> fail "sampled budget: guard stats vanished")

(* --- Stage guards: semantic corruption degrades to Partial -------------- *)

let stage_label = function
  | Flow.Compile -> "compile"
  | Flow.Techmap -> "techmap"
  | Flow.Optimize -> "optimize"
  | s -> Flow.stage_name s

let corruptions_caught = ref 0

let stage_guard_catch (case : Suite.case) at =
  let what =
    Printf.sprintf "design %s, semantic corruption at %s"
      case.Suite.case_name (Flow.stage_name at)
  in
  let hooks, corrupted = Faults.semantic_corrupting_hooks ~at () in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints ~hooks
      ~guard:Guard.Full case.Suite.case_design
  with
  | exception e -> fail "%s: uncaught %s" what (Printexc.to_string e)
  | outcome -> (
      if not !corrupted then
        (* No corruption site in this design at this stage: nothing to
           catch, the run must simply stay healthy. *)
        match outcome with
        | Flow.Complete _ -> ()
        | Flow.Partial p ->
            fail "%s: uncorrupted run degraded at %s (%s)" what
              (Flow.stage_name p.Flow.failed_stage)
              p.Flow.failure.Flow.err_message
      else
        match outcome with
        | Flow.Complete _ -> fail "%s: corruption went undetected" what
        | Flow.Partial p -> (
            if p.Flow.failed_stage <> at then
              fail "%s: caught at %s, expected %s" what
                (Flow.stage_name p.Flow.failed_stage)
                (Flow.stage_name at);
            match p.Flow.failure.Flow.err_exn with
            | Guard.Miscompile { guard_stage; divergence } ->
                incr corruptions_caught;
                if guard_stage <> stage_label at then
                  fail "%s: guard stage %S, expected %S" what guard_stage
                    (stage_label at);
                if divergence.Guard.div_ports = [] then
                  fail "%s: divergence carries no ports" what;
                Printf.printf "ok   %s -> %s\n" what
                  p.Flow.failure.Flow.err_message
            | e ->
                fail "%s: degraded with %s, expected a miscompile" what
                  (Printexc.to_string e)))

(* --- Full-guard sweep: zero mismatches on sound flows ------------------- *)

let clean_full_flow what constraints design =
  match
    Flow.run ~technology:Flow.Ecl ~constraints ~guard:Guard.Full design
  with
  | exception e -> fail "%s: uncaught %s" what (Printexc.to_string e)
  | Flow.Partial p ->
      fail "%s: full-guard flow degraded at %s (%s)" what
        (Flow.stage_name p.Flow.failed_stage)
        p.Flow.failure.Flow.err_message
  | Flow.Complete res ->
      let g = res.Flow.guard_stats in
      if g.Guard.stage_mismatches <> 0 || g.Guard.rule_mismatches <> 0 then
        fail "%s: %d stage / %d rule mismatches on a sound flow" what
          g.Guard.stage_mismatches g.Guard.rule_mismatches
      else if g.Guard.stage_checks < 3 then
        fail "%s: only %d stage checks ran, expected >= 3" what
          g.Guard.stage_checks
      else if res.Flow.quarantined <> [] then
        fail "%s: %d rule(s) quarantined on a sound flow" what
          (List.length res.Flow.quarantined)
      else
        Printf.printf
          "ok   %s full-guard clean (%d stage, %d rule checks, %d skipped)\n"
          what g.Guard.stage_checks g.Guard.rule_checks g.Guard.rule_skipped

(* examples/ inputs, as in lint_suite. *)
let find_examples () =
  let rec go dir depth =
    if depth > 4 then None
    else
      let cand = Filename.concat dir "examples" in
      if Sys.file_exists cand && Sys.is_directory cand then Some cand
      else go (Filename.concat dir "..") (depth + 1)
  in
  go "." 0

let read_input path =
  if Filename.check_suffix path ".pla" then
    Some
      (Milo_pla.Pla.to_design
         ~name:(Filename.remove_extension (Filename.basename path))
         (Milo_pla.Pla.of_file path))
  else if Filename.check_suffix path ".eqn" then
    Some (Milo_pla.Equations.of_file path)
  else if Filename.check_suffix path ".vhd" || Filename.check_suffix path ".vhdl"
  then Some (Milo_vhdl.Elaborate.design_of_file path)
  else if Filename.check_suffix path ".mil" then
    Some (Milo_netlist.Parser.of_file path)
  else None

let sweep_examples () =
  match find_examples () with
  | None -> Printf.printf "skip examples/ (directory not found)\n"
  | Some dir ->
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          match read_input path with
          | None -> ()
          | Some design ->
              clean_full_flow ("examples/" ^ f) Milo.Constraints.none design
          | exception e ->
              fail "examples/%s: cannot read (%s)" f (Printexc.to_string e))
        (Sys.readdir dir)

let () =
  direct_catch "polarity fault" Faults.polarity_rule inv_design;
  direct_catch "drop-fanin fault" Faults.drop_fanin_rule and_design;
  direct_catch "swap-mux fault" Faults.swap_mux_rule mux_design;
  sound_rule_passes ();
  pass_blocks_miscompile ();
  golden_messages ();
  workload_stays_equivalent ();
  pass_continues_past_refused_winner ();
  sampled_first_application_checked ();
  sampled_respects_budget ();
  let cases = Suite.all () in
  let stages = [ Flow.Compile; Flow.Techmap; Flow.Optimize ] in
  List.iter (fun c -> List.iter (stage_guard_catch c) stages) cases;
  if !corruptions_caught < 3 then
    fail "only %d corruption(s) had an injection site; sweep is too weak"
      !corruptions_caught;
  List.iter
    (fun (c : Suite.case) ->
      clean_full_flow
        ("design " ^ c.Suite.case_name)
        c.Suite.constraints c.Suite.case_design)
    cases;
  (* Random logic, the family the change-driven absint refresh mainly
     serves: a refresh that raised inside a find would quarantine both
     absint rules without moving QoR. *)
  let rl =
    Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates:150 ~seed:7 ()
  in
  let human = Flow.baseline_stats ~technology:Flow.Ecl rl in
  clean_full_flow "random logic 150"
    (Milo.Constraints.delay (0.5 *. human.Flow.delay))
    rl;
  sweep_examples ();
  if !failures > 0 then begin
    Printf.printf "guard_suite: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "guard_suite: all clean"

(* Abstract-interpretation and certification suite — tier-1 gate for
   lib/absint.

   - soundness fuzz: every net the analysis proves constant holds that
     value in the simulator under random input vectors (and across
     clock steps), on every mapped suite design;
   - the facts stay sound on the optimized output of a Full-guarded
     flow (invariance under guard-approved rewrites);
   - incremental oracle: feeding committed change-log entries to
     [advance] yields exactly the facts of a from-scratch analysis;
   - change-driven refresh: after every commit of the per-level greedy
     pass (designs 1-8 under ECL and CMOS, random logic at 150, 300 and
     600 gates) the session's advanced analysis equals a fresh one, net
     by net and component by component, and random logic never falls
     back to the full backward passes; hand-built edits (a register
     loop losing its reader, a NAND latch, a second driver added and
     removed, an undriven net, a removed component and net, a side input
     masking then unmasking a pin, a cycle closed and opened) each
     equal a fresh analysis after one advance, and fall back exactly
     while a cycle stands;
   - kernel memo: analyses of every mapped design under ECL and then
     CMOS through one carried memo, and of one design under two
     libraries that give a macro name different functions, equal cold
     analyses; the per-level differential above carries the memo
     through each technology's session, as a flow does;
   - certification: every built-in critic rule obtains a Certified or
     Probabilistic certificate over the witness corpus, and every
     planted miscompiling rule from [Milo_faults] is Refused;
   - certificates are digest-signed: a tampered one fails [valid] and
     is not served from the cache;
   - golden certificates: every signed field of every built-in and
     planted rule's certificate, on ECL and CMOS, is pinned;
   - JSON regression: lint reports and analysis summaries stay
     well-formed JSON when design/net names contain quotes. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module Rule = Milo_rules.Rule
module Absint = Milo_absint.Absint
module Certify = Milo_absint.Certify
module Lint_facts = Milo_absint.Lint_facts
module Simulator = Milo_sim.Simulator
module Gate_comp = Milo_compilers.Gate_comp
module Table_map = Milo_techmap.Table_map
module Flow = Milo.Flow
module Suite = Milo_designs.Suite
module Lint = Milo_lint.Lint
module Diagnostic = Milo_lint.Diagnostic

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let target () = Table_map.ecl_target ()

let sim_env () =
  Simulator.env_of_techs
    [ (target ()).Table_map.tech; Milo_library.Generic.get () ]

let absint_env () =
  Absint.env_of_techs
    [ (target ()).Table_map.tech; Milo_library.Generic.get () ]

(* --- Soundness fuzz ----------------------------------------------------- *)

let random_vector rng inputs =
  List.map (fun p -> (p, Random.State.bool rng)) inputs

(* Assert every proved-constant net settles to its constant under
   [vectors] random input assignments, stepping the clock every few
   vectors so sequential state moves off reset. *)
let fuzz_soundness name design vectors =
  let env = sim_env () in
  let st = Absint.analyze (absint_env ()) design in
  let consts = Absint.const_nets st in
  match Simulator.create env design with
  | exception _ -> () (* unsimulable designs prove nothing either way *)
  | sim ->
      let inputs =
        List.filter_map
          (fun (p, dir, _) -> if dir = T.Input then Some p else None)
          (D.ports design)
      in
      let rng = Random.State.make [| 0xab51; Hashtbl.hash name |] in
      (try
         for i = 1 to vectors do
           let vec = random_vector rng inputs in
           let values = Simulator.settle sim vec in
           List.iter
             (fun (nid, v) ->
               let simulated =
                 match Hashtbl.find_opt values nid with
                 | Some b -> b
                 | None -> false
               in
               if simulated <> v then begin
                 check
                   (Printf.sprintf "%s: net %d proved %b but simulates %b"
                      name nid v simulated)
                   false;
                 raise Exit
               end)
             consts;
           if i mod 7 = 0 then Simulator.step sim vec
         done
       with
      | Exit -> ()
      | Simulator.Combinational_loop _ -> ());
      ()

let mapped_suite () =
  List.filter_map
    (fun (case : Suite.case) ->
      match Flow.human_baseline case.Suite.case_design with
      | mapped, _ -> Some (case.Suite.case_name, mapped)
      | exception _ -> None)
    (Suite.all ())

let test_soundness () =
  List.iter
    (fun (name, mapped) -> fuzz_soundness name mapped 60)
    (mapped_suite ());
  (* and on the certification corpus itself *)
  List.iteri
    (fun i d -> fuzz_soundness (Printf.sprintf "corpus%d" i) d 60)
    (Certify.default_corpus (target ()))

(* --- Invariance under guard-approved rewrites --------------------------- *)

let test_guarded_flow_soundness () =
  List.iter
    (fun mk ->
      let case = mk () in
      match
        Flow.run ~guard:Milo_guard.Guard.Full
          ~constraints:case.Suite.constraints case.Suite.case_design
      with
      | Flow.Complete res ->
          fuzz_soundness
            (case.Suite.case_name ^ ":optimized")
            res.Flow.optimized 60
      | Flow.Partial _ ->
          check (case.Suite.case_name ^ ": full-guard flow completes") false)
    [ Suite.design1; Suite.design3 ]

(* --- Incremental oracle -------------------------------------------------- *)

let facts_signature st =
  ( List.sort compare (Absint.const_nets st),
    List.sort compare (Absint.dead_comps st),
    List.sort compare (Absint.unobservable_comps st),
    List.sort compare (Absint.stuck_pins st) )

let test_incremental () =
  let tgt = target () in
  let case = Suite.design1 () in
  let mapped, _ = Flow.human_baseline case.Suite.case_design in
  let env = absint_env () in
  let st = Absint.analyze env mapped in
  ignore (facts_signature st);
  (* grow the design: a constant-fed gate chain and a dead inverter *)
  let set = tgt.Table_map.set in
  let log = D.new_log () in
  let some_input =
    match
      List.find_opt (fun (_, dir, _) -> dir = T.Input) (D.ports mapped)
    with
    | Some (_, _, nid) -> nid
    | None -> D.new_net ~log mapped
  in
  let vss = Gate_comp.add_const ~log mapped set T.Vss in
  let tied = Gate_comp.add_gate ~log mapped set T.And [ some_input; vss ] in
  ignore (Gate_comp.add_gate ~log mapped set T.Inv [ tied ]);
  let entries = D.entries log in
  D.commit log;
  Absint.advance st entries;
  let incr_facts = facts_signature st in
  let fresh_facts = facts_signature (Absint.analyze env mapped) in
  check "incremental advance matches from-scratch analysis"
    (incr_facts = fresh_facts);
  check "advance ran incrementally, not a full re-run"
    ((Absint.stats st).Absint.full_runs = 1
    && (Absint.stats st).Absint.incremental_runs = 1);
  (* the tied gate's output must be proved constant low *)
  check "constant chain proved" (Absint.net_const st tied = Some false)

(* --- Change-driven refresh: differential against a fresh analysis ------- *)

module Engine = Milo_rules.Engine
module Absint_rules = Milo_critic.Absint_rules
module Level = Milo_optimizer.Logic_optimizer

(* Where the advanced analysis [st] and a fresh analysis of the same
   design disagree: every net's value and observability, every
   component's liveness, the multi-driven nets.  At most [limit]
   descriptions. *)
let mismatches ?(limit = 5) st fresh =
  let d = Absint.design st in
  let found = ref [] in
  let note fmt =
    Printf.ksprintf
      (fun s -> if List.length !found < limit then found := s :: !found)
      fmt
  in
  List.iter
    (fun (n : D.net) ->
      let nid = n.D.nid in
      let a = Absint.net_value st nid and b = Absint.net_value fresh nid in
      if a <> b then
        note "net %s: value %s, fresh %s" n.D.nname (Absint.value_name a)
          (Absint.value_name b);
      let a = Absint.net_observable st nid
      and b = Absint.net_observable fresh nid in
      if a <> b then note "net %s: observable %b, fresh %b" n.D.nname a b)
    (D.nets d);
  List.iter
    (fun (c : D.comp) ->
      let a = Absint.comp_live st c.D.id and b = Absint.comp_live fresh c.D.id in
      if a <> b then note "comp %s: live %b, fresh %b" c.D.cname a b)
    (D.comps d);
  if Absint.multi_driven st <> Absint.multi_driven fresh then
    note "multi-driven nets differ";
  List.rev !found

(* Refresh [st] (it has been advanced) and compare it with a fresh
   analysis built like it; [fresh] builds that one.  Returns whether
   the refresh ran the change-driven backward passes. *)
let compare_refresh what st fresh =
  let stats = Absint.stats st in
  let runs = stats.Absint.incremental_runs
  and fallbacks = stats.Absint.fallback_runs in
  ignore (Absint.net_value st 0);
  let bad = mismatches st (fresh (Absint.design st)) in
  List.iter (fun m -> check (Printf.sprintf "%s: %s" what m) false) bad;
  stats.Absint.incremental_runs > runs && stats.Absint.fallback_runs = fallbacks

(* Greedy steps of the per-level pass, which runs both absint rules:
   after every commit the session's analysis has been advanced over the
   commit's entries and must equal a fresh one.  Returns (commits,
   refreshes compared, change-driven ones, fallbacks). *)
let greedy_differential ~session (name, (target : Table_map.target), d) =
  let ctx =
    Rule.make_context ~session target.Table_map.tech target.Table_map.set
      (D.copy d)
  in
  let cost =
    Engine.Per_comp
      (Level.level_weight target (Milo_compilers.Database.create ()))
  in
  let table = Engine.new_table () and exec = Milo_parallel.Exec.inline () in
  let fresh design =
    Absint.analyze ~resolve:ctx.Rule.resolve (Rule.find_macro ctx) design
  in
  let commits = ref 0 and compared = ref 0 and driven = ref 0 in
  let fallbacks = ref 0 in
  let rec go steps =
    if steps < 400 then
      match
        Engine.greedy_step ~table ~exec ~cost ctx
          ~cleanups:Milo_critic.Critic.cleanup Milo_critic.Critic.logic
      with
      | Engine.Committed _ ->
          incr commits;
          (match Rule.analysis ctx with
          | Some (Absint_rules.Facts st) ->
              let before = (Absint.stats st).Absint.fallback_runs in
              incr compared;
              if
                compare_refresh
                  (Printf.sprintf "%s commit %d" name !commits)
                  st fresh
              then incr driven;
              fallbacks :=
                !fallbacks + (Absint.stats st).Absint.fallback_runs - before
          | Some _ | None -> ());
          go (steps + 1)
      | Engine.Refused -> go (steps + 1)
      | Engine.Quiescent -> ()
  in
  go 0;
  if Engine.quarantined ctx.Rule.session <> [] then
    check (name ^ ": no rule quarantined") false;
  let memo =
    match Rule.analysis ctx with
    | Some (Absint_rules.Facts st) -> Some (Absint.memo st)
    | Some _ | None -> None
  in
  (!commits, !compared, !driven, !fallbacks, memo)

(* The cases share one session per technology, as a flow's level
   designs do, so each case's analyses start from the memo the previous
   case of its technology left in the session (checked: the memos are
   one). *)
let test_change_driven_workloads () =
  let total = ref (0, 0, 0) in
  let sessions = ref [] and carried = ref 0 in
  List.iter
    (fun ((name, (target : Table_map.target), _) as case) ->
      let tech = target.Table_map.tech in
      let session, last_memo =
        match List.assq_opt tech !sessions with
        | Some s -> s
        | None -> (Rule.new_session (), None)
      in
      let commits, compared, driven, fallbacks, memo =
        greedy_differential ~session case
      in
      (match (last_memo, memo) with
      | Some a, Some b ->
          incr carried;
          check (name ^ ": the session carried the memo") (a == b)
      | Some _, None | None, _ -> ());
      sessions :=
        (tech, (session, if Option.is_none memo then last_memo else memo))
        :: List.remove_assq tech !sessions;
      let c, n, dr = !total in
      total := (c + compared, n + driven, dr + fallbacks);
      check (name ^ ": commits advanced the analysis") (compared = commits);
      if String.starts_with ~prefix:"random_logic" name then begin
        check (name ^ ": never falls back") (fallbacks = 0);
        check (name ^ ": refreshes are change-driven")
          (driven = compared && driven > 10)
      end)
    (Mapped_cases.designs ()
    @ List.map Mapped_cases.random_logic [ 150; 300; 600 ]);
  let compared, driven, fallbacks = !total in
  Printf.printf
    "change-driven absint: %d refreshes compared with a fresh analysis, %d \
     change-driven, %d fell back\n%!"
    compared driven fallbacks;
  check "refreshes compared" (compared > 200);
  check "sessions carried their memo" (!carried > 10)

(* Hand-built edits: one committed edit, one advance, then the facts
   against a fresh analysis.  [expect_fallback]: whether the refresh
   must run the full backward passes (a cycle) or the change-driven
   ones. *)
let edit_case what ~expect_fallback st edit =
  let log = D.new_log () in
  edit log;
  let entries = D.entries log in
  D.commit log;
  Absint.advance st entries;
  let driven =
    compare_refresh what st (fun d -> Absint.analyze (absint_env ()) d)
  in
  check
    (Printf.sprintf "%s: %s" what
       (if expect_fallback then "falls back to the full passes"
        else "change-driven"))
    (driven = not expect_fallback)

let comp d name kind = D.add_comp ~name d (T.Macro kind)

let test_change_driven_edits () =
  (* 1. A register whose Q feeds its own D through an inverter loses
     its last outside reader: the loop supports itself, and only the
     full pass drops it. *)
  let d = D.create "regloop" in
  let a = D.add_port d "a" T.Input and clk = D.add_port d "clk" T.Input in
  let y = D.add_port d "y" T.Output in
  let q = D.new_net ~name:"q" d and fb = D.new_net ~name:"fb" d in
  let r = comp d "r" "E_DFF" and i = comp d "i" "E_INV" and b = comp d "b" "E_BUF" in
  D.connect d r "D" fb;
  D.connect d r "CLK" clk;
  D.connect d r "Q" q;
  D.connect d i "A0" q;
  D.connect d i "Y" fb;
  D.connect d b "A0" q;
  D.connect d b "Y" y;
  let st = Absint.analyze (absint_env ()) d in
  check "register loop: live before" (Absint.comp_live st r);
  edit_case "register loop loses its reader" ~expect_fallback:true st
    (fun log -> D.connect ~log d b "A0" a);
  check "register loop: dead after" (not (Absint.comp_live st r));
  (* 2. A cross-coupled NAND latch whose set input is tied low: the
     constant enters the loop. *)
  let d = D.create "nandloop" in
  let s = D.add_port d "s" T.Input and rn = D.add_port d "r" T.Input in
  let q = D.add_port d "q" T.Output and qn = D.add_port d "qn" T.Output in
  let n1 = comp d "n1" "E_NAND2" and n2 = comp d "n2" "E_NAND2" in
  D.connect d n1 "A0" s;
  D.connect d n1 "A1" qn;
  D.connect d n1 "Y" q;
  D.connect d n2 "A0" rn;
  D.connect d n2 "A1" q;
  D.connect d n2 "Y" qn;
  let st = Absint.analyze (absint_env ()) d in
  edit_case "NAND loop: set tied low" ~expect_fallback:true st (fun log ->
      let lo = D.new_net ~log d in
      let z = D.add_comp ~log d (T.Macro "E_VSS") in
      D.connect ~log d z "Y" lo;
      D.connect ~log d n1 "A0" lo);
  check "NAND loop: q proved high" (Absint.net_const st q = Some true);
  (* 3. A net gains a second driver, then loses it: poisoned, then
     constant again, and its first driver is dead while it is not the
     net's driver. *)
  let d = D.create "twodrivers" in
  let a = D.add_port d "a" T.Input and y = D.add_port d "y" T.Output in
  let lo = D.new_net ~name:"lo" d and n = D.new_net ~name:"n" d in
  let z = comp d "z" "E_VSS" and i1 = comp d "i1" "E_INV" in
  let i2 = comp d "i2" "E_INV" and b = comp d "b" "E_BUF" in
  D.connect d z "Y" lo;
  D.connect d i1 "A0" lo;
  D.connect d i1 "Y" n;
  D.connect d i2 "A0" a;
  D.connect d b "A0" n;
  D.connect d b "Y" y;
  let st = Absint.analyze (absint_env ()) d in
  edit_case "second driver added" ~expect_fallback:false st (fun log ->
      D.connect ~log d i2 "Y" n);
  check "second driver: poisoned" (Absint.multi_driven st = [ n ]);
  check "second driver: the first driver is dead" (not (Absint.comp_live st i1));
  edit_case "second driver removed" ~expect_fallback:false st (fun log ->
      D.disconnect ~log d i2 "Y");
  check "second driver removed: constant again" (Absint.net_const st n = Some true);
  (* 4. A net becomes undriven: it reads low, masks the AND's other
     input, and its old driver goes dead. *)
  let d = D.create "undriven" in
  let a = D.add_port d "a" T.Input and bi = D.add_port d "b" T.Input in
  let y = D.add_port d "y" T.Output in
  let n = D.new_net ~name:"n" d in
  let i = comp d "i" "E_INV" and g = comp d "g" "E_AND2" in
  D.connect d i "A0" a;
  D.connect d i "Y" n;
  D.connect d g "A0" n;
  D.connect d g "A1" bi;
  D.connect d g "Y" y;
  let st = Absint.analyze (absint_env ()) d in
  edit_case "net becomes undriven" ~expect_fallback:false st (fun log ->
      D.disconnect ~log d i "Y");
  check "undriven: output proved low" (Absint.net_const st y = Some false);
  check "undriven: side input masked" (not (Absint.net_observable st bi));
  check "undriven: old driver dead" (not (Absint.comp_live st i));
  (* 5. A component and its output net are removed; the reader takes
     the primary input instead. *)
  let d = D.create "removed" in
  let a = D.add_port d "a" T.Input and bi = D.add_port d "b" T.Input in
  let y = D.add_port d "y" T.Output in
  let lo = D.new_net ~name:"lo" d and n = D.new_net ~name:"n" d in
  let z = comp d "z" "E_VSS" and i = comp d "i" "E_AND2" in
  let g = comp d "g" "E_OR2" in
  D.connect d z "Y" lo;
  D.connect d i "A0" a;
  D.connect d i "A1" lo;
  D.connect d i "Y" n;
  D.connect d g "A0" n;
  D.connect d g "A1" bi;
  D.connect d g "Y" y;
  let st = Absint.analyze (absint_env ()) d in
  check "removed: constant before" (Absint.net_const st n = Some false);
  edit_case "component and net removed" ~expect_fallback:false st (fun log ->
      D.remove_comp ~log d i;
      D.connect ~log d g "A0" a;
      D.remove_net ~log d n);
  check "removed: the constant source is dead" (not (Absint.comp_live st z));
  (* 6. A side input turns constant through an edit upstream of it, so
     the AND's other pin is masked; then it turns back and the pin is
     unmasked.  The AND itself is never edited. *)
  let d = D.create "masked" in
  let a = D.add_port d "a" T.Input and bi = D.add_port d "b" T.Input in
  let y = D.add_port d "y" T.Output in
  let lo = D.new_net ~name:"lo" d and s = D.new_net ~name:"s" d in
  let z = comp d "z" "E_VSS" and f = comp d "f" "E_BUF" in
  let g = comp d "g" "E_AND2" in
  D.connect d z "Y" lo;
  D.connect d f "A0" bi;
  D.connect d f "Y" s;
  D.connect d g "A0" a;
  D.connect d g "A1" s;
  D.connect d g "Y" y;
  let st = Absint.analyze (absint_env ()) d in
  check "masked: observable before" (Absint.net_observable st a);
  edit_case "side input turns constant" ~expect_fallback:false st (fun log ->
      D.connect ~log d f "A0" lo);
  check "masked: pin masked" (not (Absint.net_observable st a));
  check "masked: output proved low" (Absint.net_const st y = Some false);
  edit_case "side input turns back" ~expect_fallback:false st (fun log ->
      D.connect ~log d f "A0" bi);
  check "masked: pin unmasked" (Absint.net_observable st a);
  check "masked: output unknown again" (Absint.net_const st y = None);
  (* 7. An edit closes a combinational cycle, and a later one opens it
     again: full passes while the cycle stands, change-driven after. *)
  let d = D.create "closing" in
  let a = D.add_port d "a" T.Input and y = D.add_port d "y" T.Output in
  let n1 = D.new_net ~name:"n1" d in
  let i1 = comp d "i1" "E_INV" and i2 = comp d "i2" "E_INV" in
  D.connect d i1 "A0" a;
  D.connect d i1 "Y" n1;
  D.connect d i2 "A0" n1;
  D.connect d i2 "Y" y;
  let st = Absint.analyze (absint_env ()) d in
  edit_case "warm-up edit" ~expect_fallback:false st (fun log ->
      ignore (D.new_net ~log d));
  edit_case "edit closes a cycle" ~expect_fallback:true st (fun log ->
      D.connect ~log d i1 "A0" y);
  edit_case "unrelated edit while the cycle stands" ~expect_fallback:true st
    (fun log -> ignore (D.new_net ~log d));
  edit_case "edit opens the cycle" ~expect_fallback:false st (fun log ->
      D.connect ~log d i1 "A0" a);
  check "cycle: live again" (Absint.comp_live st i1)

(* --- The kernel memo ----------------------------------------------------- *)

(* Every mapped design of the per-level pass under ECL, then every one
   under CMOS, analysed through one carried memo: each analysis's facts
   equal a cold analysis's, and the memo saves evaluations. *)
let test_memo_carried () =
  let cases = Mapped_cases.designs () in
  let under suffix =
    List.filter (fun (name, _, _) -> String.ends_with ~suffix name) cases
  in
  let memo = ref None and carried = ref 0 and cold = ref 0 in
  List.iter
    (fun (name, (target : Table_map.target), d) ->
      let env = Absint.env_of_techs [ target.Table_map.tech ] in
      let st = Absint.analyze ?memo:!memo env d in
      memo := Some (Absint.memo st);
      let fresh = Absint.analyze env d in
      carried := !carried + (Absint.stats st).Absint.transfers;
      cold := !cold + (Absint.stats fresh).Absint.transfers;
      List.iter
        (fun m -> check (Printf.sprintf "carried memo, %s: %s" name m) false)
        (mismatches st fresh))
    (under "/ecl" @ under "/cmos");
  Printf.printf
    "carried memo: %d evaluations over the mapped designs, %d cold\n%!"
    !carried !cold;
  check "the carried memo saves evaluations" (!carried < !cold)

(* Two libraries give one macro name different functions (AND, then OR,
   then AND again in a third library).  A memo carried from each to the
   next must not answer for the other's macro: the facts equal a cold
   analysis's. *)
let test_memo_two_libraries () =
  let library fn =
    Milo_library.Technology.create "two"
      [
        Milo_library.Defs.gate ~delay:1.0 ~area:1.0 ~power:1.0 ~gates:1.0 "G"
          fn 2;
      ]
  in
  let design () =
    let d = D.create "one_name" in
    let a = D.add_port d "a" T.Input and b = D.add_port d "b" T.Input in
    let y = D.add_port d "y" T.Output in
    let n = D.new_net ~name:"n" d in
    (* g1's A1 is left unconnected: it reads low *)
    let g1 = comp d "g1" "G" and g2 = comp d "g2" "G" in
    D.connect d g1 "A0" a;
    D.connect d g1 "Y" n;
    D.connect d g2 "A0" n;
    D.connect d g2 "A1" b;
    D.connect d g2 "Y" y;
    (d, n)
  in
  let memo = ref None and consts = ref [] in
  List.iter
    (fun (what, fn) ->
      let env = Absint.env_of_techs [ library fn ] in
      let d, n = design () in
      let st = Absint.analyze ?memo:!memo env d in
      memo := Some (Absint.memo st);
      let fresh = Absint.analyze env d in
      consts := Absint.net_const fresh n :: !consts;
      List.iter
        (fun m ->
          check (Printf.sprintf "memo across libraries, %s: %s" what m) false)
        (mismatches st fresh))
    [ ("AND", T.And); ("OR", T.Or); ("AND again", T.And) ];
  check "the two functions give different facts"
    (!consts = [ Some false; None; Some false ])

(* --- Certification ------------------------------------------------------- *)

let test_certification () =
  let tgt = target () in
  let cache = Certify.create_cache () in
  let certs =
    Certify.certify_rules ~cache tgt Milo_critic.Critic.all_logic_level
  in
  check "every built-in rule yields a certificate"
    (List.length certs = List.length Milo_critic.Critic.all_logic_level);
  List.iter
    (fun (c : Certify.certificate) ->
      check
        (Printf.sprintf "rule %s certified or probabilistic (got %s%s)"
           c.Certify.cert_rule
           (Certify.verdict_name c.Certify.cert_verdict)
           (if c.Certify.cert_detail = "" then ""
            else ": " ^ c.Certify.cert_detail))
        (match c.Certify.cert_verdict with
        | Certify.Certified | Certify.Probabilistic -> true
        | Certify.Uncertified | Certify.Refused -> false);
      check
        (Printf.sprintf "certificate for %s is signed" c.Certify.cert_rule)
        (Certify.valid c))
    certs;
  check "a solid majority of rules is fully certified"
    (List.length (Certify.certified_names certs) * 2
    > List.length certs);
  (* cache round-trip *)
  List.iter
    (fun (c : Certify.certificate) ->
      check "cache serves the certificate"
        (Certify.lookup ~cache
           ~tech:(Milo_library.Technology.name tgt.Table_map.tech)
           c.Certify.cert_rule
        = Some c))
    certs;
  (* a tampered certificate fails validation *)
  (match certs with
  | c :: _ ->
      let forged = { c with Certify.cert_verdict = Certify.Certified } in
      check "tampered certificate rejected"
        (c.Certify.cert_verdict = Certify.Certified || not (Certify.valid forged))
  | [] -> ());
  (* planted miscompiling rules are refused *)
  List.iter
    (fun (rule : Rule.t) ->
      let fcache = Certify.create_cache () in
      match Certify.certify_rules ~cache:fcache tgt [ rule ] with
      | [ c ] ->
          check
            (Printf.sprintf "fault rule %s refused (got %s)"
               rule.Rule.rule_name
               (Certify.verdict_name c.Certify.cert_verdict))
            (c.Certify.cert_verdict = Certify.Refused);
          check "refused rule is not in the certified set"
            (Certify.certified_names [ c ] = [])
      | _ -> check ("certify " ^ rule.Rule.rule_name) false)
    (Milo_faults.miscompiling_rules ())

(* Golden certificates: every field a certificate signs, digest
   included, for every built-in rule and every planted miscompiler on
   both targets.  A change to the cone check, the witness corpus or a
   rule's matching shows here as the first certificate that moved. *)
let golden_certificates =
  [
    ( "ecl",
      Table_map.ecl_target,
      [
        ("invert-root", "certified", 1, 1, 0, "", "c76b37aec4db6042fb597ca7087426f3");
        ("gate-merge", "certified", 2, 2, 0, "", "71191e322e192d4c3274122be70bf5ad");
        ("mux-ff-merge", "probabilistic", 1, 0, 1, "", "0b4cd88d8276c76107acf7650cd02096");
        ("const-select-mux", "certified", 1, 1, 0, "", "26f2d5fa266cec02c120b6b47dc9fa57");
        ("mux-into-muxff", "probabilistic", 1, 0, 1, "", "52ced7a62502469373f30f5c5e64a2ca");
        ("absint-const-collapse", "certified", 2, 2, 0, "", "a38c8fe2d88876d1dc623954d196ab31");
        ("absint-prune-unobservable", "certified", 1, 1, 0, "", "b3303197775fbbc4caa93b338f75d43f");
        ("high-power-swap", "certified", 4, 4, 0, "", "578d2925f1b04a19c28973d936d43311");
        ("adder-cla-swap", "certified", 1, 1, 0, "", "6bffd9901208f8ac09a0a7b36097134d");
        ("duplicate-driver", "certified", 4, 4, 0, "", "9359e64894f1bf710e14b110f5f3ae7b");
        ("isolate-input", "certified", 4, 4, 0, "", "e4afe310a917484bcf8584b72358b92e");
        ("adder-ripple-swap", "certified", 1, 1, 0, "", "110b4b7e8ba3c874afc1731a47420790");
        ("share-duplicate", "certified", 4, 4, 0, "", "296a42b2fee0b7cab132c1fcfc279637");
        ("cone-resynth", "certified", 1, 1, 0, "", "5917efbd57310f813734a83a3ddc4327");
        ("ornor-share", "certified", 1, 1, 0, "", "7e7a135ddcb491ec150ee6d2512dbced");
        ("standard-power-swap", "certified", 1, 1, 0, "", "f2b6e9c0ba7f2913921e48561fd8fbd8");
        ("fanout-buffer", "certified", 1, 1, 0, "", "f856b5171267ada54d4f5d970933849c");
        ("dead-logic", "certified", 1, 1, 0, "", "a8a7950fcaaed884248e23e313cc7950");
        ("double-inverter", "certified", 1, 1, 0, "", "85979567e39666f4bc15836a6b3fc6c9");
        ("buffer-elim", "certified", 1, 1, 0, "", "fdccc07e71469b79ccfcb2da001ac687");
        ("constant-prop", "certified", 2, 2, 0, "", "3f04328825bc73a2e66ebc9fd99f207f");
      ],
      [
        ("fault-polarity", "refused", 1, 0, 0, "polarity fault: net 8 diverges", "f564bc136db421f18016e07e5287a95d");
        ("fault-drop-fanin", "refused", 1, 0, 0, "drop-fanin fault: net 7 diverges", "73ae93f1fcfd01843cbcc5328f39eb76");
        ("fault-swap-mux", "refused", 1, 0, 0, "swap-mux fault: net 44 diverges", "421363bc7c40f12877128d37f0f0cd50");
      ] );
    ( "cmos",
      Table_map.cmos_target,
      [
        ("invert-root", "certified", 1, 1, 0, "", "cb24499387bf37be32ef916751b885ce");
        ("gate-merge", "certified", 1, 1, 0, "", "0f229c80aa9e4cd7a60c3de9523733e9");
        ("mux-ff-merge", "probabilistic", 1, 0, 1, "", "a1f15c099e54a8605949d8cccee44701");
        ("const-select-mux", "certified", 1, 1, 0, "", "d8444fc0d0b5a2e0941b5167aa0e8346");
        ("mux-into-muxff", "probabilistic", 1, 0, 1, "", "01b07a239bcbdd1c1301646cc0ee843e");
        ("absint-const-collapse", "certified", 2, 2, 0, "", "f4e80791ab5da2581ed18f98c9b82c2c");
        ("absint-prune-unobservable", "certified", 1, 1, 0, "", "518870c9f19144c25ef9d31957b500a4");
        ("high-power-swap", "uncertified", 0, 0, 0, "", "426a32cc3894c844abd2fa7e4c135d8c");
        ("adder-cla-swap", "certified", 1, 1, 0, "", "bd69dd918dba89fb09d0eb065f94a912");
        ("duplicate-driver", "certified", 4, 4, 0, "", "05a2c51bf7dbbaecf20fa3d76479b300");
        ("isolate-input", "certified", 4, 4, 0, "", "d8723257aee9b74427e4b56ec708e76d");
        ("adder-ripple-swap", "certified", 1, 1, 0, "", "68d249e66182793e35d153b27b3d9316");
        ("share-duplicate", "certified", 4, 4, 0, "", "7f959da7058c2d58a0af6a51f66ae19e");
        ("cone-resynth", "certified", 1, 1, 0, "", "764a166396851c6652edfacc890b096d");
        ("ornor-share", "uncertified", 0, 0, 0, "", "cdd88da3d3428d4f2987b47759bda742");
        ("standard-power-swap", "uncertified", 0, 0, 0, "", "dcb1e2dff383d78f33d58a571e425a90");
        ("fanout-buffer", "certified", 1, 1, 0, "", "ae98934047e920e52a0a3dfb1a384b53");
        ("dead-logic", "certified", 1, 1, 0, "", "ad9d2ef54c0b5ba5188dc85633543124");
        ("double-inverter", "certified", 1, 1, 0, "", "68140fa08e60e5c0c04a6ba9498b7314");
        ("buffer-elim", "certified", 1, 1, 0, "", "a01bf8926a64f3973a245544aac1fbac");
        ("constant-prop", "certified", 2, 2, 0, "", "e6288b7daf2f3fd0f26efdeeab095f54");
      ],
      [
        ("fault-polarity", "refused", 1, 0, 0, "polarity fault: net 8 diverges", "bf91a0f03ba0f37eb0a922fa0849281c");
        ("fault-drop-fanin", "refused", 1, 0, 0, "drop-fanin fault: net 7 diverges", "3e3c552dd0b62160b771e4b83c2ede67");
        ("fault-swap-mux", "refused", 1, 0, 0, "swap-mux fault: net 44 diverges", "50aba08c3d504ed17ad3126cd551d761");
      ] );
  ]

let test_golden_certificates () =
  let fields (c : Certify.certificate) =
    ( c.Certify.cert_rule,
      Certify.verdict_name c.Certify.cert_verdict,
      c.Certify.cert_sites,
      c.Certify.cert_exhaustive,
      c.Certify.cert_random,
      c.Certify.cert_detail,
      c.Certify.cert_digest )
  in
  let show (r, v, s, e, x, d, g) =
    Printf.sprintf "(%S, %S, %d, %d, %d, %S, %S)" r v s e x d g
  in
  List.iter
    (fun (tech, tgt, builtin, faults) ->
      List.iter
        (fun (what, rules, expected) ->
          let got =
            List.map fields
              (Certify.certify_rules ~cache:(Certify.create_cache ()) (tgt ())
                 rules)
          in
          if List.length got <> List.length expected then
            check
              (Printf.sprintf "%s: %d certificates, want %d" what
                 (List.length got) (List.length expected))
              false
          else
            List.iter2
              (fun g e ->
                check
                  (Printf.sprintf "golden %s certificate: got %s, want %s"
                     tech (show g) (show e))
                  (g = e))
              got expected)
        [
          (tech ^ " built-in", Milo_critic.Critic.all_logic_level, builtin);
          (tech ^ " planted", Milo_faults.miscompiling_rules (), faults);
        ])
    golden_certificates

(* --- Analysis-powered lint ----------------------------------------------- *)

let test_lint_facts () =
  let tgt = target () in
  let set = tgt.Table_map.set in
  let d = D.create "lintfacts" in
  let a = D.add_port d "A" T.Input in
  let b = D.add_port d "B" T.Input in
  let vdd = Gate_comp.add_const d set T.Vdd in
  (* constant output port *)
  ignore (D.add_port ~net:(Gate_comp.add_gate d set T.Or [ a; vdd ]) d "YC"
            T.Output);
  (* dead gate *)
  ignore (Gate_comp.add_gate d set T.And [ a; b ]);
  (* masked (unobservable) cone *)
  let u = Gate_comp.add_gate d set T.Xor [ a; b ] in
  ignore (D.add_port ~net:(Gate_comp.add_gate d set T.Or [ u; vdd ]) d "YM"
            T.Output);
  (* floating input on a live gate *)
  let fl = D.add_comp d (T.Macro "E_AND2") in
  D.connect d fl "A0" a;
  let fln = D.new_net d in
  D.connect d fl "Y" fln;
  ignore (D.add_port ~net:fln d "YF" T.Output);
  let st = Absint.analyze (absint_env ()) d in
  let diags = Lint_facts.all st in
  let has rule =
    List.exists (fun (g : Diagnostic.t) -> g.Diagnostic.rule = rule) diags
  in
  check "constant-output reported" (has "absint-constant-output");
  check "dead-macro reported" (has "absint-dead-macro");
  check "unobservable-cone reported" (has "absint-unobservable-cone");
  check "stuck-input reported" (has "absint-stuck-input");
  check "floating-input reported" (has "absint-floating-input")

(* --- JSON escaping regression -------------------------------------------- *)

(* Minimal JSON well-formedness scanner: strings with escapes, nesting
   balance.  Enough to catch a raw quote leaking into output. *)
let json_well_formed s =
  let n = String.length s in
  let rec skip_string i =
    if i >= n then None
    else
      match s.[i] with
      | '"' -> Some (i + 1)
      | '\\' -> if i + 1 < n then skip_string (i + 2) else None
      | _ -> skip_string (i + 1)
  in
  let rec go i depth in_obj =
    if i >= n then depth = 0 && in_obj = 0
    else
      match s.[i] with
      | '"' -> (
          match skip_string (i + 1) with
          | Some j -> go j depth in_obj
          | None -> false)
      | '{' | '[' -> go (i + 1) (depth + 1) in_obj
      | '}' | ']' -> depth > 0 && go (i + 1) (depth - 1) in_obj
      | _ -> go (i + 1) depth in_obj
  in
  go 0 0 0

let test_json_escaping () =
  let d = D.create "bad \"quoted\" design" in
  let a = D.add_port d "A" T.Input in
  let net = D.new_net ~name:"wire \"x\"\n" d in
  let c = D.add_comp d ~name:"comp \"q\"" (T.Macro "E_INV") in
  D.connect d c "A0" a;
  D.connect d c "Y" net;
  ignore (D.add_port ~net d "Y" T.Output);
  let resolve =
    Milo_library.Technology.resolver (target ()).Table_map.tech
  in
  let diags = Lint.run ~resolve d in
  let report =
    Lint.report_to_json
      { Lint.design_name = D.name d; stage = Some "analysis"; diags }
  in
  check "lint JSON report with quoted names is well-formed"
    (json_well_formed report);
  let st = Absint.analyze (absint_env ()) d in
  check "analysis summary JSON with quoted name is well-formed"
    (json_well_formed (Absint.summary_to_json (D.name d) (Absint.summary st)));
  List.iter
    (fun g ->
      check "diagnostic JSON is well-formed"
        (json_well_formed (Diagnostic.to_json g)))
    (Lint_facts.all st);
  check "json_escape escapes quotes"
    (Milo_trace.Export.json_escape "a\"b" = "a\\\"b")

(* --- Driver -------------------------------------------------------------- *)

let () =
  test_soundness ();
  test_guarded_flow_soundness ();
  test_incremental ();
  test_change_driven_edits ();
  test_change_driven_workloads ();
  test_memo_carried ();
  test_memo_two_libraries ();
  test_certification ();
  test_golden_certificates ();
  test_lint_facts ();
  test_json_escaping ();
  if !failures > 0 then begin
    Printf.printf "%d absint suite failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "absint suite: all checks passed"

(* Optimizer tests: cones, the eight strategies, the time optimizer,
   area/power optimizers, the hierarchical logic optimizer. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Cone = Milo_rules.Cone

let mapped_design = Mapped_cases.mapped_design

let test_cone_extract_eval () =
  let _, d = mapped_design ~gates:30 ~seed:9 in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let sim = Milo_sim.Simulator.create (Util.env_ecl ()) d in
  (* compare cone evaluation against whole-design simulation on the
     output port cones *)
  List.iter
    (fun (p, dir, nid) ->
      if dir = T.Output then
        match Cone.extract ctx ~max_leaves:6 nid with
        | None -> ()
        | Some cone ->
            (match Cone.truth_table ctx cone with
            | None -> ()
            | Some tt ->
                (* random vectors: settle the design, read leaf values,
                   compare tt against the output net value *)
                let rng = Random.State.make [| 77 |] in
                for _ = 1 to 16 do
                  let ins =
                    List.filter_map
                      (fun (ip, idir, _) ->
                        if idir = T.Input then Some (ip, Random.State.bool rng)
                        else None)
                      (D.ports d)
                  in
                  let nets = Milo_sim.Simulator.settle sim ins in
                  let leaf_val n =
                    Option.value ~default:false (Hashtbl.find_opt nets n)
                  in
                  let arr =
                    Array.of_list (List.map leaf_val cone.Cone.leaves)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "cone of %s matches simulation" p)
                    (Option.value ~default:false (Hashtbl.find_opt nets nid))
                    (Milo_boolfunc.Truth_table.eval tt arr)
                done))
    (D.ports d)

(* An AND of [n] input ports built from AND4/AND3/AND2 gates under one
   root gate; returns the design, the root gate and the output net. *)
let and_cone n =
  let d = D.create (Printf.sprintf "and%d" n) in
  let ins = List.init n (fun i -> D.add_port d (Printf.sprintf "I%d" i) T.Input) in
  let gate ns =
    let g = D.add_comp d (T.Macro (Printf.sprintf "AND%d" (List.length ns))) in
    List.iteri (fun i nid -> D.connect d g (Printf.sprintf "A%d" i) nid) ns;
    let y = D.new_net d in
    D.connect d g "Y" y;
    (g, y)
  in
  let rec groups = function
    | a :: b :: c :: (_ :: _ :: _ as rest) -> [ a; b; c ] :: groups rest
    | l -> [ l ]
  in
  let root, y = gate (List.map (fun ns -> snd (gate ns)) (groups ins)) in
  ignore (D.add_port ~net:y d "Y" T.Output);
  (d, root, y)

(* Exhaustive sweeps whose minterm count is not a multiple of the lane
   count end in a partial chunk: the live lanes there must be read, and
   the dead ones never. *)
let test_cone_partial_chunks () =
  let lib = Util.generic () in
  let ctx_of d =
    R.make_context lib (Milo_compilers.Gate_comp.generic_set lib) d
  in
  let cone_of ctx n y =
    match Cone.extract ctx ~max_leaves:n y with
    | Some cone ->
        Alcotest.(check int) "leaves" n (List.length cone.Cone.leaves);
        cone
    | None -> Alcotest.fail "no cone"
  in
  (* 6 leaves: 64 minterms, minterm 63 alone in chunk 1, lane 0 *)
  let d, root, y = and_cone 6 in
  let ctx = ctx_of d in
  let cone = cone_of ctx 6 y in
  (match Cone.truth_table ctx cone with
  | Some tt ->
      Alcotest.(check int64) "AND6 truth table" Int64.min_int
        (Milo_boolfunc.Truth_table.bits tt)
  | None -> Alcotest.fail "no truth table");
  let vectors = Cone.exhaustive cone.Cone.leaves in
  Alcotest.(check int) "AND6 chunks" 2 (Cone.chunks vectors);
  let before = Cone.sweep ctx vectors y in
  (* one explicit all-ones vector: lane 0 live, lanes 1-62 dead *)
  let sampled = Cone.of_masks cone.Cone.leaves [ 63 ] in
  let sampled_before = Cone.sweep ctx sampled y in
  (* an input swap on the root keeps the function *)
  let n0 = Option.get (D.connection d root "A0")
  and n1 = Option.get (D.connection d root "A1") in
  let log = D.new_log () in
  D.disconnect ~log d root "A0";
  D.disconnect ~log d root "A1";
  D.connect ~log d root "A0" n1;
  D.connect ~log d root "A1" n0;
  Alcotest.(check bool) "input swap: no witness" true
    (Cone.recheck ctx vectors before y = None);
  D.undo d log;
  (* re-driven by a constant 0: differs at minterm 63 only *)
  D.disconnect d root "Y";
  let z = D.add_comp d (T.Macro "VSS") in
  D.connect d z "Y" y;
  Alcotest.(check (option (list (pair int bool))))
    "constant 0: the all-ones witness"
    (Some (List.map (fun l -> (l, true)) cone.Cone.leaves))
    (Cone.recheck ctx vectors before y);
  (* re-driven by a constant 1: the all-zeros witness comes first, and
     the explicit vector's dead lanes (all zero) are never compared *)
  D.set_kind d z (T.Macro "VDD");
  Alcotest.(check (option (list (pair int bool))))
    "constant 1: the all-zeros witness"
    (Some (List.map (fun l -> (l, false)) cone.Cone.leaves))
    (Cone.recheck ctx vectors before y);
  Alcotest.(check bool) "constant 1: dead lanes masked" true
    (Cone.recheck ctx sampled sampled_before y = None);
  (* 10 leaves: 1024 minterms, minterm 1023 in chunk 16, lane 15 of 16 *)
  let d, _, y = and_cone 10 in
  let ctx = ctx_of d in
  let cone = cone_of ctx 10 y in
  Alcotest.(check int) "AND10 chunks" 17
    (Cone.chunks (Cone.exhaustive cone.Cone.leaves));
  Alcotest.(check (list int)) "AND10 minterms" [ 1023 ] (Cone.minterms ctx cone)

let strategies_preserve_function seed =
  let src, d = mapped_design ~gates:50 ~seed in
  ignore src;
  let reference = D.copy d in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  let env name = Milo_library.Technology.find (Util.ecl ()) name in
  List.iter
    (fun (s : Milo_optimizer.Strategies.strategy) ->
      let sta = Milo_timing.Sta.analyze env d in
      match Milo_timing.Paths.most_critical sta with
      | None -> ()
      | Some path ->
          let log = D.new_log () in
          (match s.Milo_optimizer.Strategies.run ctx sta path log with
          | Milo_optimizer.Strategies.Applied _ ->
              Milo_rules.Engine.run_cleanups ctx Milo_critic.Critic.cleanup log;
              let r =
                Milo_sim.Equiv.combinational (Util.env_ecl ()) reference
                  (Util.env_ecl ()) d
              in
              Alcotest.(check bool)
                (Printf.sprintf "strategy %d (%s) sound: %s"
                   s.Milo_optimizer.Strategies.id
                   s.Milo_optimizer.Strategies.strat_name
                   (Format.asprintf "%a" Milo_sim.Equiv.pp_result r))
                true
                (Milo_sim.Equiv.is_equivalent r);
              (* restore for the next strategy *)
              D.undo d log
          | Milo_optimizer.Strategies.Not_applicable -> D.undo d log))
    Milo_optimizer.Strategies.all

let test_strategies_sound () =
  List.iter strategies_preserve_function [ 2; 17; 29 ]

let test_strategy_order () =
  let small = Milo_optimizer.Strategies.order_for ~deficit:0.1 ~required:10.0 in
  Alcotest.(check bool) "small slack starts with free strategies" true
    (List.hd small = 1);
  let large = Milo_optimizer.Strategies.order_for ~deficit:8.0 ~required:10.0 in
  Alcotest.(check bool) "large slack includes strategy 7" true
    (List.mem 7 large);
  Alcotest.(check bool) "small slack excludes strategy 7" true
    (not (List.mem 7 small))

(* The time, area and power optimizers read a measurer. *)
let measured_ctx tech d =
  let ctx = Util.ctx_for tech d in
  ctx.R.measurer := Some (Milo_measure.Measure.create tech d);
  ctx

let test_time_opt_reduces_delay () =
  let _, d = mapped_design ~gates:60 ~seed:41 in
  let reference = D.copy d in
  let ctx = measured_ctx (Util.ecl ()) d in
  let before = Milo_optimizer.Time_opt.worst ctx in
  let outcome =
    Milo_optimizer.Time_opt.optimize ~required:(before *. 0.75)
      ~cleanups:Milo_critic.Critic.cleanup ctx
  in
  Alcotest.(check bool) "delay reduced" true
    (outcome.Milo_optimizer.Time_opt.final_delay < before);
  (* every recorded step really reduced the worst delay *)
  List.iter
    (fun (s : Milo_optimizer.Time_opt.step) ->
      Alcotest.(check bool) "step improved" true
        (s.Milo_optimizer.Time_opt.delay_after
         < s.Milo_optimizer.Time_opt.delay_before))
    outcome.Milo_optimizer.Time_opt.steps;
  Util.check_equiv (Util.env_ecl ()) reference (Util.env_ecl ()) d

let test_area_opt_respects_timing () =
  let _, d = mapped_design ~gates:50 ~seed:55 in
  let ctx = measured_ctx (Util.ecl ()) d in
  let before_delay = Milo_optimizer.Time_opt.worst ctx in
  let required = before_delay +. 0.1 in
  ignore
    (Milo_optimizer.Area_opt.optimize ~required
       ~rules:(Milo_critic.Critic.area @ Milo_critic.Critic.logic)
       ~cleanups:Milo_critic.Critic.cleanup ctx);
  (* measured from scratch, not read off the measurer *)
  let after_delay =
    (Milo_rules.Engine.measure_fn ctx ~input_arrivals:[] ()).Milo_rules.Engine.delay
  in
  Alcotest.(check bool) "constraint held" true (after_delay <= required +. 1e-6)

let test_power_opt () =
  (* Power the whole design up, then let the power optimizer recover. *)
  let _, d = mapped_design ~gates:40 ~seed:61 in
  let ctx = Util.ctx_for (Util.ecl ()) d in
  List.iter
    (fun (c : D.comp) ->
      match R.macro_of ctx c with
      | Some m -> (
          match
            Milo_library.Technology.high_power_variant (Util.ecl ())
              m.Milo_library.Macro.mname
          with
          | Some hv ->
              D.set_kind d c.D.id (T.Macro hv.Milo_library.Macro.mname)
          | None -> ())
      | None -> ())
    (D.comps d);
  ctx.R.measurer := Some (Milo_measure.Measure.create (Util.ecl ()) d);
  let env name = Milo_library.Technology.find (Util.ecl ()) name in
  let before = Milo_estimate.Estimate.power env d in
  let apps =
    Milo_optimizer.Power_opt.optimize
      ~rules:Milo_critic.Critic.power ~cleanups:[] ctx
  in
  let after = Milo_estimate.Estimate.power env d in
  Alcotest.(check bool) "swaps applied" true (List.length apps > 0);
  Alcotest.(check bool) "power reduced" true (after < before)

let test_hierarchical_optimizer () =
  (* The Figure 18 process on the ABADD design: bottom-up levels, flat
     result, function preserved, mux+ff merge found. *)
  let design = Milo_designs.Abadd.design () in
  let db = Milo_compilers.Database.create () in
  let lib = Util.generic () in
  let expanded = Milo_compilers.Compile.expand_design db lib design in
  let target = Milo_techmap.Table_map.ecl_target () in
  let optimized, report =
    Milo_optimizer.Logic_optimizer.optimize ~required:6.5 db target expanded
  in
  (* flat: no instances *)
  Alcotest.(check bool) "flat" true
    (List.for_all
       (fun (c : D.comp) ->
         match c.D.kind with T.Instance _ -> false | _ -> true)
       (D.comps optimized));
  (* the REG4 level merged mux+ff into MUXFF macros *)
  let has_muxff =
    List.exists
      (fun (c : D.comp) ->
        match c.D.kind with
        | T.Macro m -> String.length m >= 7 && String.sub m 0 7 = "E_MUXFF"
        | _ -> false)
      (D.comps optimized)
  in
  Alcotest.(check bool) "MUXFF macros present" true has_muxff;
  Alcotest.(check bool) "levels reported" true
    (List.length report.Milo_optimizer.Logic_optimizer.entries >= 3);
  let baseline, _ = Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl design in
  Util.check_equiv ~seq:true (Util.env_ecl ()) baseline (Util.env_ecl ()) optimized

(* --- Focused cleanups and the hoisted baseline ------------------------- *)

module Engine = Milo_rules.Engine
module Table_map = Milo_techmap.Table_map

let cleanups = Milo_critic.Critic.cleanup
let ctx_of (target : Table_map.target) d = R.make_context target.Table_map.tech target.Table_map.set d

let level_cost target =
  Milo_optimizer.Logic_optimizer.level_cost target (Milo_compilers.Database.create ())

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Mapped inputs of the per-level pass: designs 1-8 under ECL and CMOS,
   and 150-gate random logic under ECL. *)
let mapped_cases () = Mapped_cases.designs () @ [ Mapped_cases.random_logic 150 ]

(* Every candidate of the rules the greedy passes score (logic, area,
   power), or of [rules]. *)
let candidates ?(rules = Milo_critic.Critic.(logic @ area @ power)) ctx =
  List.concat_map
    (fun r -> List.map (fun s -> (r, s)) (Engine.guarded_find ctx r))
    rules

(* No live cleanup matches anywhere in the design. *)
let cleanup_quiet ctx cleanups =
  List.for_all (fun c -> Engine.guarded_find ctx c = []) cleanups

(* On a cleanup-quiet design, each candidate applied with focused
   cleanups and with whole-design cleanups (on two copies) must reach
   the same design and the same level cost.  Returns the number of
   candidates compared (0 when the design is not quiet) and how many of
   them made a cleanup fire. *)
let check_locality what target d =
  let ctx = ctx_of target d in
  if not (cleanup_quiet ctx cleanups) then (0, 0)
  else
    List.fold_left
      (fun (n, fired) ((r : R.t), (site : R.site)) ->
        let run cleanup_pass =
          let c = ctx_of target (D.copy d) in
          let log = D.new_log () in
          let applied = Engine.guarded_apply c r site log in
          let edits = List.length !log in
          if applied then cleanup_pass c cleanups log;
          (c, List.length !log > edits)
        in
        let near, _ = run Engine.run_cleanups_near in
        let full, cleaned = run Engine.run_cleanups in
        let label = Printf.sprintf "%s: %s at %s" what r.R.rule_name site.R.descr in
        Alcotest.(check bool) (label ^ ": same design") true
          (D.equal_structure near.R.design full.R.design);
        Alcotest.(check bool) (label ^ ": same level cost") true
          (same_float (level_cost target near ()) (level_cost target full ()));
        (n + 1, if cleaned then fired + 1 else fired))
      (0, 0) (candidates ctx)

let test_cleanup_locality () =
  let compared = ref 0 and fired = ref 0 in
  let quiet_states = ref 0 and states = ref 0 in
  List.iter
    (fun (name, target, d) ->
      let check when_ =
        incr states;
        let n, f = check_locality (name ^ " " ^ when_) target d in
        if n > 0 then incr quiet_states;
        compared := !compared + n;
        fired := !fired + f
      in
      check "first step";
      let ctx = ctx_of target d in
      let steps n =
        List.length
          (Engine.greedy_pass ~max_steps:n
             ~cost:(Engine.Measured (level_cost target))
             ctx ~cleanups Milo_critic.Critic.logic)
        = n
      in
      if steps 3 then begin
        check "after 3 steps";
        if steps 7 then check "after 10 steps"
      end)
    (* and random logic at 300 gates, the benchmark's larger size *)
    (mapped_cases () @ [ Mapped_cases.random_logic 300 ]);
  Printf.printf
    "locality: %d candidates compared (%d fired cleanups) over %d/%d quiet states\n"
    !compared !fired !quiet_states !states;
  Alcotest.(check bool) "most states quiet" true (2 * !quiet_states > !states);
  Alcotest.(check bool) "candidates compared" true (!compared > 100);
  Alcotest.(check bool) "cleanups fired" true (!fired > 10)

(* Insert INV-INV between the driver of some internal net and one of its
   gate consumers: a double-inverter site far from most candidates. *)
let plant_double_inverter d =
  let inv = "E_INV" in
  let target_net =
    List.find
      (fun (n : D.net) ->
        n.D.nport = None
        && List.exists (fun (_, pin) -> pin = "Y") n.D.npins
        && List.exists (fun (_, pin) -> String.starts_with ~prefix:"A" pin) n.D.npins)
      (D.nets d)
  in
  let sink, pin =
    List.find (fun (_, pin) -> String.starts_with ~prefix:"A" pin) target_net.D.npins
  in
  let n1 = D.new_net d and n2 = D.new_net d in
  let i1 = D.add_comp d (T.Macro inv) and i2 = D.add_comp d (T.Macro inv) in
  D.connect d i1 "A0" target_net.D.nid;
  D.connect d i1 "Y" n1;
  D.connect d i2 "A0" n1;
  D.connect d i2 "Y" n2;
  D.connect d sink pin n2

let test_planted_debris_takes_full_path () =
  (* A greedy step focuses its candidates' cleanups only on a
     cleanup-quiet design.  The cleanup rules are wrapped to count
     focused and whole-design [find]s: one step on the quiet design
     makes focused finds; scoring the candidates after planting a
     double inverter makes none.  The pass keeps the cleanups' site
     lists and refreshes them on each commit's extent, so its next step
     makes no whole-design find at all. *)
  let target = Table_map.ecl_target () in
  let _, quiet_d = mapped_design ~gates:150 ~seed:7 in
  Engine.run_cleanups (ctx_of target quiet_d) cleanups (D.new_log ());
  let planted_d = D.copy quiet_d in
  plant_double_inverter planted_d;
  let focused = ref 0 and unfocused = ref 0 in
  let watched =
    List.map
      (fun (r : R.t) ->
        {
          r with
          R.find =
            (fun ctx ->
              if Option.is_some !(ctx.R.focus) then incr focused
              else incr unfocused;
              r.R.find ctx);
        })
      cleanups
  in
  let exec = Milo_parallel.Exec.inline ()
  and cost = Engine.Measured (level_cost target) in
  let counted f =
    focused := 0;
    unfocused := 0;
    f ();
    (!focused, !unfocused)
  in
  let step table ctx =
    let quiet = cleanup_quiet ctx cleanups in
    let n, u =
      counted (fun () ->
          match
            Engine.greedy_step ~table ~exec ~cost ctx ~cleanups:watched
              Milo_critic.Critic.logic
          with
          | Engine.Committed _ -> ()
          | Engine.Refused | Engine.Quiescent -> Alcotest.fail "no greedy step")
    in
    (quiet, n, u)
  in
  let ctx = ctx_of target quiet_d and table = Engine.new_table () in
  let quiet, n, u = step table ctx in
  Alcotest.(check bool) "mapped design is quiet after cleanups" true quiet;
  Alcotest.(check bool) "quiet design: focused finds" true (n > 0);
  Alcotest.(check int) "quiet design: one whole-design find per cleanup"
    (List.length cleanups) u;
  let quiet, n, u = step table ctx in
  Alcotest.(check bool) "still quiet after the commit" true quiet;
  Alcotest.(check bool) "after a quiet commit: focused finds" true (n > 0);
  Alcotest.(check int) "after a quiet commit: no whole-design find" 0 u;
  let ctx = ctx_of target planted_d in
  Alcotest.(check bool) "planted pair breaks quietness" false
    (cleanup_quiet ctx cleanups);
  let n, _ =
    counted (fun () ->
        ignore
          (Engine.candidate_gains ~exec ~cost ctx ~cleanups:watched
             Milo_critic.Critic.logic))
  in
  Alcotest.(check int) "planted design: no focused find while scoring" 0 n

let test_hoisted_baseline_exact () =
  (* A task measures its fork once; every evaluation undoes itself
     exactly, so after each one the cost is bit-identical to that
     baseline — for the per-level cost on a fork without a measurer,
     and for the area cost on the fork of a measured context, whose
     forked measurer must retreat exactly. *)
  List.iter
    (fun (name, target, d) ->
      let ctx = ctx_of target d in
      let quiet = cleanup_quiet ctx cleanups in
      let rules =
        Milo_critic.Critic.logic @ Milo_critic.Critic.area @ Milo_critic.Critic.power
      in
      List.iter
        (fun (cname, measured, cost_factory) ->
          ctx.R.measurer :=
            if measured then
              Some (Milo_measure.Measure.create target.Table_map.tech d)
            else None;
          let w = R.fork_context ctx in
          Alcotest.(check bool) (cname ^ ": fork carries a measurer") measured
            (Option.is_some !(w.R.measurer));
          let cost = cost_factory w in
          let before = cost () in
          List.iter
            (fun (r : R.t) ->
              List.iter
                (fun site ->
                  ignore (Engine.evaluate w ~before ~cost ~quiet ~cleanups r site);
                  if not (same_float (cost ()) before) then
                    Alcotest.failf "%s %s: cost drifted after %s at %s" name cname
                      r.R.rule_name site.R.descr)
                (Engine.guarded_find w r))
            rules)
        [
          ("level_cost", false, level_cost target);
          (* a tight constraint, so the delay penalty is part of the cost *)
          ("area cost", true, Milo_optimizer.Area_opt.cost_fn ~required:0.0);
        ])
    (List.filter
       (fun (name, _, _) ->
         List.mem name [ "design1/ecl"; "design6/cmos"; "random_logic_150/ecl" ])
       (mapped_cases ()))

(* --- Shared absint analysis --------------------------------------------- *)

module Absint_rules = Milo_critic.Absint_rules
module Gate_shape = Milo_critic.Gate_shape
module Macro = Milo_library.Macro

(* The analysis [ctx]'s session holds for its current state, if any. *)
let shared_facts ctx =
  match R.analysis ctx with
  | Some (Absint_rules.Facts st) -> Some st
  | Some _ | None -> None

(* Each absint rule's [find] through [ctx]'s session, twice (the second
   time on the analysis the first one left), lists the sites a fresh
   session finds.  Returns how many sites there were. *)
let check_absint_sites what ctx =
  List.fold_left
    (fun n (r : R.t) ->
      let fresh = r.R.find { ctx with R.session = R.new_session () } in
      let first = r.R.find ctx in
      let facts = shared_facts ctx in
      let second = r.R.find ctx in
      let label = Printf.sprintf "%s: %s" what r.R.rule_name in
      Alcotest.(check bool) (label ^ ": analysis kept") true (Option.is_some facts);
      Alcotest.(check bool) (label ^ ": analysis reused") true
        (Option.equal ( == ) facts (shared_facts ctx));
      Alcotest.(check bool) (label ^ ": first find = fresh session") true
        (first = fresh);
      Alcotest.(check bool) (label ^ ": second find = fresh session") true
        (second = fresh);
      n + List.length fresh)
    0 Absint_rules.rules

(* Tie the first input of the lowest-id AND/NAND/OR/NOR gate that
   drives a consumer, and that absint-const-collapse does not list yet,
   to the gate's controlling value: its output becomes a proved constant
   and its other inputs are masked.  Returns the gate. *)
let plant_constant ctx target =
  let d = ctx.R.design in
  let sited =
    Absint_rules.const_collapse.R.find { ctx with R.session = R.new_session () }
  in
  let controlling (m : Macro.t) =
    match Gate_shape.of_macro m with
    | Some { Gate_shape.fn = T.And | T.Nand; arity } when arity >= 2 -> Some T.Vss
    | Some { Gate_shape.fn = T.Or | T.Nor; arity } when arity >= 2 -> Some T.Vdd
    | Some _ | None -> None
  in
  let victim, m, lvl =
    List.find_map
      (fun (c : D.comp) ->
        match R.macro_of ctx c with
        | None -> None
        | Some m -> (
            match (controlling m, m.Macro.outputs) with
            | Some lvl, [ o ]
              when not (List.exists (fun s -> s.R.site_comps = [ c.D.id ]) sited) -> (
                match D.connection d c.D.id o with
                | Some nid when R.fanout ctx nid > 0 -> Some (c.D.id, m, lvl)
                | Some _ | None -> None)
            | _ -> None))
      (D.comps d)
    |> Option.get
  in
  let cnet = Milo_compilers.Gate_comp.add_const d target.Table_map.set lvl in
  D.connect d victim (List.hd m.Macro.inputs) cnet;
  victim

let test_shared_absint_never_stale () =
  (* Per design: check at the first greedy step, plant a constant, check
     again, run up to 3 greedy steps, check after them.  The steps'
     commits advance the shared analysis, so the check after them runs
     on an advanced one. *)
  let stepped = ref 0 and sites = ref 0 and changed = ref 0 in
  let incremental = ref 0 in
  List.iter
    (fun (name, target, d) ->
      let ctx = ctx_of target (D.copy d) in
      ignore (check_absint_sites (name ^ " first step") ctx);
      ignore (plant_constant ctx target);
      let planted = check_absint_sites (name ^ " planted") ctx in
      let apps =
        Engine.greedy_pass ~max_steps:3
          ~cost:(Engine.Measured (level_cost target))
          ctx ~cleanups Milo_critic.Critic.logic
      in
      let after = check_absint_sites (name ^ " after the steps") ctx in
      Option.iter
        (fun st ->
          let stats = Milo_absint.Absint.stats st in
          incremental := !incremental + stats.Milo_absint.Absint.incremental_runs)
        (shared_facts ctx);
      if apps <> [] then incr stepped;
      sites := !sites + planted + after;
      if after <> planted then incr changed)
    (List.filter
       (fun (name, _, _) -> String.ends_with ~suffix:"/ecl" name)
       (mapped_cases ()));
  Printf.printf
    "%d designs stepped, %d absint sites, %d site counts changed, %d incremental \
     absint runs\n"
    !stepped !sites !changed !incremental;
  Alcotest.(check bool) "greedy steps committed" true (!stepped > 6);
  Alcotest.(check bool) "commits advanced the analysis" true (!incremental > 0);
  Alcotest.(check bool) "absint sites compared" true (!sites > 9);
  Alcotest.(check bool) "site lists changed between the checks" true (!changed > 3)

(* An analysis's facts against a fresh analysis of the same state. *)
let check_facts what ctx st =
  let module A = Milo_absint.Absint in
  let fresh = A.analyze ~resolve:ctx.R.resolve (R.find_macro ctx) ctx.R.design in
  Alcotest.(check (list (pair int bool)))
    (what ^ ": const nets") (A.const_nets fresh) (A.const_nets st);
  Alcotest.(check (list int))
    (what ^ ": dead comps") (A.dead_comps fresh) (A.dead_comps st);
  Alcotest.(check (list int))
    (what ^ ": unobservable comps")
    (A.unobservable_comps fresh) (A.unobservable_comps st)

let test_shared_absint_invalidation () =
  (* The session's analysis is reused on an unchanged state, replaced
     after a design edit or an undo, and advanced by a committed greedy
     step; a constant planted between two finds shows up in the
     second. *)
  let target = Table_map.ecl_target () in
  let _, d = mapped_design ~gates:150 ~seed:7 in
  let ctx = ctx_of target d in
  let collapse = Absint_rules.const_collapse in
  let find what =
    ignore (collapse.R.find ctx);
    match shared_facts ctx with
    | Some st -> st
    | None -> Alcotest.failf "%s: find left no analysis" what
  in
  let stale what =
    Alcotest.(check bool) (what ^ ": analysis out of date") true
      (Option.is_none (R.analysis ctx))
  in
  let a0 = find "start" in
  Alcotest.(check bool) "unchanged state: analysis reused" true (find "again" == a0);
  Alcotest.(check bool) "a worker fork starts without one" true
    (Option.is_none (R.fork_context ctx).R.session.R.analysis);
  let log = D.new_log () in
  ignore (D.new_net ~log d);
  stale "edit";
  let a1 = find "edit" in
  Alcotest.(check bool) "edit: re-analysed" true (a1 != a0);
  D.undo d log;
  stale "undo";
  let a2 = find "undo" in
  Alcotest.(check bool) "undo: re-analysed" true (a2 != a1);
  (match
     Engine.greedy_step ~exec:(Milo_parallel.Exec.inline ())
       ~cost:(Engine.Measured (level_cost target))
       ctx ~cleanups Milo_critic.Critic.logic
   with
  | Engine.Committed _ -> ()
  | Engine.Refused | Engine.Quiescent ->
      Alcotest.fail "no greedy step to commit");
  Alcotest.(check bool) "commit: the same analysis, advanced" true
    (match shared_facts ctx with Some st -> st == a2 | None -> false);
  check_facts "commit" ctx a2;
  let victim = plant_constant ctx target in
  stale "plant";
  Alcotest.(check bool) "planted constant is found" true
    (List.exists (fun s -> s.R.site_comps = [ victim ]) (collapse.R.find ctx))

(* --- In-order strategy dispatch ---------------------------------------- *)

module Time_opt = Milo_optimizer.Time_opt
module Strategies = Milo_optimizer.Strategies

(* The speculative dispatch that in-order dispatch replaced, kept as
   the reference: each iteration runs every eligible strategy's oracle
   on its own fork, then re-runs the first success on the real context.
   Returns the steps and how many oracles ran. *)
let speculative_optimize ~required ctx =
  let oracles = ref 0 in
  let rec loop n acc =
    let current = Time_opt.worst ctx in
    if current <= required || n >= 64 then List.rev acc
    else
      let order =
        Strategies.order_for ~deficit:(current -. required)
          ~required:(Float.max required current)
      in
      let helps =
        List.filter
          (fun id ->
            incr oracles;
            Time_opt.try_strategy (R.fork_context ctx) ~cleanups (Strategies.by_id id)
            <> None)
          order
      in
      match
        List.find_map
          (fun id -> Time_opt.try_strategy ctx ~cleanups (Strategies.by_id id))
          helps
      with
      | Some step -> loop (n + 1) (step :: acc)
      | None -> List.rev acc
  in
  let steps = loop 0 [] in
  (steps, !oracles)

(* A strategy that edits the design and then raises is refused in place
   like any other try: the design (its fresh-id counters included) and
   the measurer are as before, the strategy is quarantined once with
   reason [Raised], and the next strategy in the order is still tried;
   the next iteration skips the quarantined one. *)
let test_raising_strategy_contained () =
  let _, d = mapped_design ~gates:60 ~seed:41 in
  let tech = Util.ecl () in
  let ctx = measured_ctx tech d in
  let untouched = D.copy d in
  let raising =
    {
      Strategies.id = 100;
      strat_name = "raising";
      run =
        (fun ctx _ _ log ->
          let design = ctx.R.design in
          let victim = List.hd (D.comps design) in
          D.remove_comp ~log design victim.D.id;
          let n = D.new_net ~log design in
          let g = D.add_comp ~log design (T.Macro "E_INV") in
          D.connect ~log design g "Y" n;
          failwith "raising strategy");
    }
  in
  let tried = ref 0 in
  let next =
    {
      Strategies.id = 101;
      strat_name = "next";
      run =
        (fun _ _ _ _ ->
          incr tried;
          Strategies.Not_applicable);
    }
  in
  let session = ctx.R.session in
  let key = "strategy:raising" in
  let iteration () =
    Alcotest.(check bool) "no step" true
      (Time_opt.try_all ~cleanups ctx [ raising; next ] = None)
  in
  iteration ();
  Alcotest.(check bool) "same structure" true (D.equal_structure untouched d);
  Alcotest.(check (pair int int)) "same counters" (D.counters untouched) (D.counters d);
  let totals m =
    let c = Milo_measure.Measure.current m in
    Milo_measure.Measure.[ c.delay; c.area; c.power ]
  in
  Alcotest.(check (list (float 0.0))) "measurer as a fresh one"
    (totals (Milo_measure.Measure.create tech untouched))
    (totals (Option.get !(ctx.R.measurer)));
  Alcotest.(check (list (pair string int))) "quarantined once" [ (key, 1) ]
    (Engine.quarantined session);
  Alcotest.(check bool) "reason: raised" true
    (Engine.quarantined_reasons session = [ (key, Engine.Raised) ]);
  Alcotest.(check int) "the next strategy was tried" 1 !tried;
  iteration ();
  Alcotest.(check (list (pair string int))) "skipped once quarantined" [ (key, 1) ]
    (Engine.quarantined session);
  Alcotest.(check int) "the next strategy was tried again" 2 !tried

let step_image (s : Time_opt.step) =
  Printf.sprintf "%s | %s | %h -> %h" s.Time_opt.step_strategy s.Time_opt.step_detail
    s.Time_opt.delay_before s.Time_opt.delay_after

let test_in_order_dispatch () =
  (* Designs 1-8 under ECL and CMOS with the paper's constraints, and
     150-gate random logic at half its delay: in-order dispatch, each
     strategy tried once in place, takes the steps the speculative
     reference takes, to the bit, ends on the same design, ids
     included, leaves a Sampled rule guard with the same counts and
     sampling position, and on random logic makes fewer tries than the
     reference runs oracles. *)
  let suite =
    List.concat_map
      (fun (case : Milo_designs.Suite.case) ->
        let c = case.Milo_designs.Suite.constraints in
        List.map
          (fun tech ->
            let mapped, _ =
              Milo.Flow.human_baseline ~technology:tech
                case.Milo_designs.Suite.case_design
            in
            ( case.Milo_designs.Suite.case_name ^ "/" ^ Milo.Flow.technology_name tech,
              Milo.Flow.target_of tech,
              mapped,
              c.Milo.Constraints.required_delay,
              c.Milo.Constraints.input_arrivals ))
          [ Milo.Flow.Ecl; Milo.Flow.Cmos ])
      (Milo_designs.Suite.all ())
  in
  let rl_name, rl_target, rl = Mapped_cases.random_logic 150 in
  let total = ref 0 in
  List.iter
    (fun (name, (target : Table_map.target), d, required, input_arrivals) ->
      let measured () =
        let d = D.copy d in
        let ctx = ctx_of target d in
        ctx.R.measurer :=
          Some (Milo_measure.Measure.create ~input_arrivals target.Table_map.tech d);
        ctx
      in
      let reference = measured () and ctx = measured () in
      (* The reference's oracles run unguarded on forks and only its
         re-runs tick the guard; a try in place ticks it, and a refused
         one rewinds it. *)
      List.iter
        (fun c -> Engine.set_rule_guard c.R.session Milo_guard.Guard.Sampled)
        [ reference; ctx ];
      let required =
        match required with Some r -> r | None -> 0.5 *. Time_opt.worst ctx
      in
      let steps, oracles = speculative_optimize ~required reference in
      let budget = Milo_rules.Budget.unlimited () in
      let outcome = Time_opt.optimize ~required ~budget ~cleanups ctx in
      total := !total + List.length steps;
      Alcotest.(check (list string)) (name ^ ": same steps")
        (List.map step_image steps)
        (List.map step_image outcome.Time_opt.steps);
      Alcotest.(check bool) (name ^ ": same design") true
        (D.equal_structure reference.R.design ctx.R.design);
      let guard c =
        let st = Option.get (Engine.rule_guard_stats c.R.session) in
        ( Format.asprintf "%a" Milo_guard.Guard.pp_stats st,
          Engine.guard_sample_state c.R.session )
      in
      let want_stats, want_sample = guard reference and got_stats, got_sample = guard ctx in
      Alcotest.(check string) (name ^ ": same guard stats") want_stats got_stats;
      Alcotest.(check (option (pair int (list string))))
        (name ^ ": same sampling position") want_sample got_sample;
      if name = rl_name then begin
        let evals = (Milo_rules.Budget.status budget).Milo_rules.Budget.evals_used in
        Printf.printf "%s: %d steps, %d budget evals, %d reference oracles\n" name
          (List.length steps) evals oracles;
        Alcotest.(check bool)
          (Printf.sprintf "%s: budget evals < reference oracles" name)
          true (evals < oracles)
      end)
    (suite @ [ (rl_name, rl_target, rl, None, []) ]);
  Printf.printf "%d strategy steps compared\n" !total;
  Alcotest.(check bool) "strategy steps compared" true (!total > 10)

let () =
  Alcotest.run "optimizer"
    [
      ( "cone",
        [
          Alcotest.test_case "extract/eval vs simulation" `Quick test_cone_extract_eval;
          Alcotest.test_case "packed sweep partial chunks" `Quick
            test_cone_partial_chunks;
        ]
      );
      ( "strategies",
        [
          Alcotest.test_case "soundness" `Slow test_strategies_sound;
          Alcotest.test_case "slack ordering" `Quick test_strategy_order;
        ] );
      ( "time-opt",
        [
          Alcotest.test_case "reduces delay" `Quick test_time_opt_reduces_delay;
          Alcotest.test_case "in-order = speculative dispatch" `Slow
            test_in_order_dispatch;
          Alcotest.test_case "raising strategy contained in place" `Quick
            test_raising_strategy_contained;
        ] );
      ( "area-opt",
        [ Alcotest.test_case "respects timing" `Quick test_area_opt_respects_timing ]
      );
      ("power-opt", [ Alcotest.test_case "recovers power" `Quick test_power_opt ]);
      ( "focused-cleanups",
        [
          Alcotest.test_case "locality: focused = full" `Slow test_cleanup_locality;
          Alcotest.test_case "planted debris takes the full path" `Quick
            test_planted_debris_takes_full_path;
          Alcotest.test_case "hoisted baseline is exact" `Quick
            test_hoisted_baseline_exact;
        ] );
      ( "shared-analysis",
        [
          Alcotest.test_case "never stale over greedy steps" `Slow
            test_shared_absint_never_stale;
          Alcotest.test_case "edit, undo drop; commit advances" `Quick
            test_shared_absint_invalidation;
        ] );
      ( "hierarchical",
        [ Alcotest.test_case "figure 18 process" `Slow test_hierarchical_optimizer ]
      );
    ]

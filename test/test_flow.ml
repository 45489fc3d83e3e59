(* End-to-end flow tests: the Figure 19 suite through the full MILO
   pipeline — function preserved, improvements non-negative, micro
   critic feedback behaves as Figure 16 describes. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types

let run_case (case : Milo_designs.Suite.case) =
  let human =
    Milo.Flow.baseline_stats ~technology:Milo.Flow.Ecl
      case.Milo_designs.Suite.case_design
  in
  let res =
    Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
      ~constraints:case.Milo_designs.Suite.constraints
      case.Milo_designs.Suite.case_design
  in
  (human, res)

let test_flow_equivalence () =
  List.iter
    (fun (case : Milo_designs.Suite.case) ->
      let baseline, _ =
        Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
          case.Milo_designs.Suite.case_design
      in
      let res =
        Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
          ~constraints:case.Milo_designs.Suite.constraints
          case.Milo_designs.Suite.case_design
      in
      let r =
        Milo_sim.Equiv.sequential ~cycles:48 ~runs:3 (Util.env_ecl ()) baseline
          (Util.env_ecl ()) res.Milo.Flow.optimized
      in
      Alcotest.(check bool)
        (Printf.sprintf "design %s equivalent: %s"
           case.Milo_designs.Suite.case_name
           (Format.asprintf "%a" Milo_sim.Equiv.pp_result r))
        true
        (Milo_sim.Equiv.is_equivalent r))
    (Milo_designs.Suite.all ())

let test_flow_improves_delay () =
  (* On every Figure 19 design MILO's delay is never worse than the
     human baseline, and the logic-level designs (1-5) improve by at
     least 10% as in the paper's 19-36% range. *)
  List.iter
    (fun (case : Milo_designs.Suite.case) ->
      let human, res = run_case case in
      let milo = res.Milo.Flow.final in
      Alcotest.(check bool)
        (Printf.sprintf "design %s delay no worse (%.2f vs %.2f)"
           case.Milo_designs.Suite.case_name milo.Milo.Flow.delay
           human.Milo.Flow.delay)
        true
        (milo.Milo.Flow.delay <= human.Milo.Flow.delay +. 1e-6);
      if int_of_string case.Milo_designs.Suite.case_name <= 5 then
        Alcotest.(check bool)
          (Printf.sprintf "design %s delay improves >= 10%%"
             case.Milo_designs.Suite.case_name)
          true
          (milo.Milo.Flow.delay < human.Milo.Flow.delay *. 0.9))
    (Milo_designs.Suite.all ())

let test_cmos_flow () =
  (* The same pipeline retargets to the CMOS library. *)
  let case = Milo_designs.Suite.design4 () in
  let baseline, _ =
    Milo.Flow.human_baseline ~technology:Milo.Flow.Cmos
      case.Milo_designs.Suite.case_design
  in
  let res =
    Milo.Flow.run_exn ~technology:Milo.Flow.Cmos
      ~constraints:case.Milo_designs.Suite.constraints
      case.Milo_designs.Suite.case_design
  in
  let r =
    Milo_sim.Equiv.combinational (Util.env_cmos ()) baseline (Util.env_cmos ())
      res.Milo.Flow.optimized
  in
  Alcotest.(check bool) "CMOS flow equivalent" true
    (Milo_sim.Equiv.is_equivalent r);
  (* only CMOS macros in the result *)
  List.iter
    (fun (c : D.comp) ->
      match c.D.kind with
      | T.Macro m ->
          Alcotest.(check bool) (m ^ " is CMOS") true
            (Milo_library.Technology.mem (Util.cmos ()) m)
      | k -> Alcotest.failf "unexpected %s" (T.kind_name k))
    (D.comps res.Milo.Flow.optimized)

let test_micro_critic_feedback () =
  (* Figure 16: the critic converts the naive accumulator and the
     result is a smaller, faster design than the baseline. *)
  let design = Milo_designs.Suite.accumulator ~bits:8 () in
  let human = Milo.Flow.baseline_stats ~technology:Milo.Flow.Ecl design in
  let res =
    Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
      ~constraints:(Milo.Constraints.delay 5.0) design
  in
  Alcotest.(check bool) "counter rule applied" true
    (List.exists
       (fun (rule, _) -> rule = "adder-register-to-counter")
       res.Milo.Flow.micro_applications);
  Alcotest.(check bool) "area improved" true
    (res.Milo.Flow.final.Milo.Flow.area < human.Milo.Flow.area);
  Alcotest.(check bool) "delay improved" true
    (res.Milo.Flow.final.Milo.Flow.delay < human.Milo.Flow.delay)

let test_constraints_api () =
  let c = Milo.Constraints.make ~required_delay:5.0 ~max_area:100.0 () in
  Alcotest.(check bool) "meets" true
    (Milo.Constraints.meets c ~delay:4.0 ~area:90.0 ~power:50.0);
  Alcotest.(check bool) "fails delay" false
    (Milo.Constraints.meets c ~delay:6.0 ~area:90.0 ~power:50.0);
  Alcotest.(check bool) "fails area" false
    (Milo.Constraints.meets c ~delay:4.0 ~area:150.0 ~power:50.0)

let test_report () =
  let case = Milo_designs.Suite.design3 () in
  let human, res = run_case case in
  let row =
    Milo.Report.row_of_stats ~name:"x" ~human ~milo:res.Milo.Flow.final
  in
  Alcotest.(check bool) "row formats" true
    (String.length (Milo.Report.format_row row) > 0);
  Alcotest.(check bool) "improvement formula" true
    (Float.abs (Milo.Report.percent_improvement 10.0 5.0 -. 50.0) < 1e-9);
  let summary = Milo.Report.summary res in
  Alcotest.(check bool) "summary nonempty" true (String.length summary > 0)

let test_abadd_flow () =
  (* The paper's walkthrough example end to end. *)
  let design = Milo_designs.Abadd.design () in
  let baseline, _ = Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl design in
  let res =
    Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
      ~constraints:Milo_designs.Abadd.constraints design
  in
  let r =
    Milo_sim.Equiv.sequential ~cycles:64 ~runs:4 (Util.env_ecl ()) baseline
      (Util.env_ecl ()) res.Milo.Flow.optimized
  in
  Alcotest.(check bool) "abadd equivalent" true (Milo_sim.Equiv.is_equivalent r);
  Alcotest.(check bool) "abadd improves area" true
    (res.Milo.Flow.final.Milo.Flow.area
     < (Milo.Flow.baseline_stats ~technology:Milo.Flow.Ecl design).Milo.Flow.area)

(* The netlist memoises pin directions keyed on the kind alone, which
   is sound only while every resolver a design is queried with gives a
   kind the same pin list.  At the techmap and optimize checkpoints,
   every net's driver, sinks and fanout agree under the rule context's,
   the simulator's and the technology's resolver: on a cold design, and
   on one whose memos another resolver filled first. *)
let test_resolvers_agree () =
  let answers resolve d =
    List.map
      (fun (n : D.net) ->
        let nid = n.D.nid in
        ( D.driver ~resolve d nid,
          D.sinks ~resolve d nid,
          D.fanout ~resolve d nid ))
      (D.nets d)
  in
  let check label technology d =
    let target = Milo.Flow.target_of technology in
    let tech = target.Milo_techmap.Table_map.tech in
    (* a re-parsed design starts with every memo empty *)
    let text = Milo_netlist.Writer.to_string d in
    let cold () = Milo_netlist.Parser.of_string text in
    let resolvers =
      [
        ( "rule context",
          (Milo_rules.Rule.make_context tech target.Milo_techmap.Table_map.set
             (cold ()))
            .Milo_rules.Rule.resolve );
        ( "simulator",
          Milo_sim.Simulator.(resolver_of_env (env_of_techs [ tech ])) );
        ("technology", Milo_library.Technology.resolver tech);
      ]
    in
    let reference = answers (snd (List.hd resolvers)) (cold ()) in
    List.iter
      (fun (name, resolve) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s resolver, cold" label name)
          true
          (answers resolve (cold ()) = reference);
        List.iter
          (fun (filler, fill) ->
            let d = cold () in
            ignore (answers fill d);
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s resolver after %s" label name filler)
              true
              (answers resolve d = reference))
          resolvers)
      resolvers
  in
  let flow name technology constraints design =
    let res = Milo.Flow.run_exn ~technology ~constraints design in
    List.iter
      (fun (ck : Milo.Flow.checkpoint) ->
        match ck.Milo.Flow.ck_stage with
        | Milo.Flow.Techmap | Milo.Flow.Optimize ->
            check
              (Printf.sprintf "%s %s/%s" name
                 (Milo.Flow.technology_name technology)
                 (Milo.Flow.stage_name ck.Milo.Flow.ck_stage))
              technology ck.Milo.Flow.ck_design
        | Milo.Flow.Capture | Milo.Flow.Micro | Milo.Flow.Compile -> ())
      res.Milo.Flow.checkpoints
  in
  List.iter
    (fun technology ->
      List.iter
        (fun (case : Milo_designs.Suite.case) ->
          flow case.Milo_designs.Suite.case_name technology
            case.Milo_designs.Suite.constraints
            case.Milo_designs.Suite.case_design)
        (Milo_designs.Suite.all ()))
    [ Milo.Flow.Ecl; Milo.Flow.Cmos ];
  flow "random logic" Milo.Flow.Ecl Milo.Constraints.none
    (Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates:150
       ~seed:7 ())

let test_analysis_stage_warm () =
  (* The analysis stage starts from the kernel memo the optimizer's
     absint rules left in the run's session: its facts are a cold
     analysis's of the optimized design, and it evaluates fewer
     transfer functions. *)
  let module A = Milo_absint.Absint in
  let warmed = ref 0 in
  List.iter
    (fun (case : Milo_designs.Suite.case) ->
      let res =
        Milo.Flow.run_exn ~technology:Milo.Flow.Ecl ~lint:Milo_lint.Lint.Warn
          ~constraints:case.Milo_designs.Suite.constraints
          case.Milo_designs.Suite.case_design
      in
      let techs =
        [ (Milo.Flow.target_of Milo.Flow.Ecl).Milo_techmap.Table_map.tech;
          Milo_library.Generic.get () ]
      in
      let cold =
        A.summary
          (A.analyze
             ~resolve:(Milo_compilers.Database.resolver res.Milo.Flow.database techs)
             (A.env_of_techs techs) res.Milo.Flow.optimized)
      in
      let name = case.Milo_designs.Suite.case_name in
      match res.Milo.Flow.analysis with
      | None -> Alcotest.failf "%s: no analysis with lint on" name
      | Some warm ->
          Alcotest.(check string) (name ^ ": the facts of a cold analysis")
            (Format.asprintf "%a" A.pp_summary cold)
            (Format.asprintf "%a" A.pp_summary warm);
          Alcotest.(check bool) (name ^ ": no more transfers than cold") true
            (warm.A.sum_transfers <= cold.A.sum_transfers);
          Printf.printf "%s: %d transfers warm, %d cold\n" name warm.A.sum_transfers
            cold.A.sum_transfers;
          if warm.A.sum_transfers < cold.A.sum_transfers then incr warmed)
    (Milo_designs.Suite.all ());
  Alcotest.(check bool) "the memo answered on most designs" true (!warmed >= 4)

let () =
  Alcotest.run "flow"
    [
      ( "figure-19",
        [
          Alcotest.test_case "equivalence" `Slow test_flow_equivalence;
          Alcotest.test_case "improvements" `Slow test_flow_improves_delay;
        ] );
      ( "technologies",
        [ Alcotest.test_case "CMOS retarget" `Quick test_cmos_flow ] );
      ( "micro-critic",
        [ Alcotest.test_case "figure 16 feedback" `Quick test_micro_critic_feedback ]
      );
      ( "api",
        [
          Alcotest.test_case "constraints" `Quick test_constraints_api;
          Alcotest.test_case "report" `Quick test_report;
        ] );
      ("abadd", [ Alcotest.test_case "walkthrough" `Quick test_abadd_flow ]);
      ( "analysis",
        [ Alcotest.test_case "warm stage = cold analysis" `Slow test_analysis_stage_warm ]
      );
      ( "netlist",
        [ Alcotest.test_case "resolvers agree" `Slow test_resolvers_agree ] );
    ]

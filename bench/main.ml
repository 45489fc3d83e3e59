(* The MILO benchmark harness.

   One sub-command per experiment of DESIGN.md's index (E1-E8), each
   printing the same rows/series the paper reports, plus a Bechamel
   micro-benchmark section (one Test.make per experiment kernel).

     dune exec bench/main.exe            -- all experiments + bechamel
     dune exec bench/main.exe fig19      -- just the Figure 19 table
     dune exec bench/main.exe abadd      -- the Figure 16/18 walkthrough
     dune exec bench/main.exe metarules  -- the [CoBa85] lookahead study
     dune exec bench/main.exe scaling    -- the [JoTr86] linearity study
     dune exec bench/main.exe strategies -- strategy gain/cost profiles
     dune exec bench/main.exe microcritic| estimator | dagon
     dune exec bench/main.exe bechamel   -- timing micro-benchmarks
     dune exec bench/main.exe smoke      -- 0-step-budget flow smoke run *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Every BENCH_*.json artifact goes through this emitter: keys sorted,
   one per line — so checked-in artifacts diff cleanly across runs and
   branches regardless of the order fields were computed in. *)
let bench_json fields =
  let fields = List.sort (fun (a, _) (b, _) -> compare a b) fields in
  "{\n"
  ^ String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k v) fields)
  ^ "\n}\n"

let write_bench file fields =
  try
    let oc = open_out file in
    output_string oc (bench_json fields);
    close_out oc;
    Printf.printf "wrote %s\n%!" file
  with Sys_error msg -> Printf.printf "could not write %s: %s\n%!" file msg

(* --- E1: Figure 19 ---------------------------------------------------- *)

let fig19 () =
  section "E1 / Figure 19: eight designs, human baseline vs MILO (ECL)";
  let rows =
    List.map
      (fun (c : Milo_designs.Suite.case) ->
        let human =
          Milo.Flow.baseline_stats ~technology:Milo.Flow.Ecl
            ~input_arrivals:
              c.Milo_designs.Suite.constraints.Milo.Constraints.input_arrivals
            c.Milo_designs.Suite.case_design
        in
        let res =
          Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
            ~constraints:c.Milo_designs.Suite.constraints
            c.Milo_designs.Suite.case_design
        in
        ( Milo.Report.row_of_stats ~name:c.Milo_designs.Suite.case_name ~human
            ~milo:res.Milo.Flow.final,
          c ))
      (Milo_designs.Suite.all ())
  in
  Milo.Report.print_table (List.map fst rows);
  Printf.printf "\npaper reference (Figure 19): delay improvements ";
  List.iter
    (fun (_, (c : Milo_designs.Suite.case)) ->
      Printf.printf "%.0f%% " c.Milo_designs.Suite.paper_delay_impr)
    rows;
  Printf.printf "\n                             area  improvements ";
  List.iter
    (fun (_, (c : Milo_designs.Suite.case)) ->
      Printf.printf "%.0f%% " c.Milo_designs.Suite.paper_area_impr)
    rows;
  print_newline ()

(* --- E2: the ABADD walkthrough ---------------------------------------- *)

let abadd () =
  section "E2 / Figures 16+18: the ABADD walkthrough";
  let design = Milo_designs.Abadd.design () in
  let db = Milo_compilers.Database.create () in
  let lib = Milo_library.Generic.get () in
  let expanded = Milo_compilers.Compile.expand_design db lib design in
  Printf.printf "compiled hierarchy: %s\n"
    (String.concat ", " (Milo_compilers.Database.names db));
  let target = Milo_techmap.Table_map.ecl_target () in
  let optimized, report =
    Milo_optimizer.Logic_optimizer.optimize ~required:6.5 db target expanded
  in
  List.iter
    (fun (e : Milo_optimizer.Logic_optimizer.report_entry) ->
      Printf.printf "  level %-22s rules=%d area %.1f -> %.1f\n"
        e.Milo_optimizer.Logic_optimizer.level_design
        e.Milo_optimizer.Logic_optimizer.applications
        e.Milo_optimizer.Logic_optimizer.area_before
        e.Milo_optimizer.Logic_optimizer.area_after)
    report.Milo_optimizer.Logic_optimizer.entries;
  let muxffs =
    List.length
      (List.filter
         (fun (c : D.comp) ->
           match c.D.kind with
           | T.Macro m -> String.length m >= 7 && String.sub m 0 7 = "E_MUXFF"
           | _ -> false)
         (D.comps optimized))
  in
  let human = Milo.Flow.baseline_stats ~technology:Milo.Flow.Ecl design in
  let final = Milo.Flow.stats_of target optimized in
  Printf.printf "mux+flip-flop merges: %d\n" muxffs;
  Printf.printf "baseline: delay %.2f ns, area %.1f cells\n"
    human.Milo.Flow.delay human.Milo.Flow.area;
  Printf.printf "MILO:     delay %.2f ns, area %.1f cells\n" final.Milo.Flow.delay
    final.Milo.Flow.area

(* --- E3: metarules (CoBa85) ------------------------------------------- *)

let metarules () =
  section "E3 / [CoBa85]: lookahead with and without metarules";
  Printf.printf
    "%-14s %10s %10s %12s %8s\n" "control" "time(s)" "rel.time" "area gain" "evals";
  let workloads =
    List.map
      (fun seed ->
        let src = Milo_designs.Workload.random_logic ~gates:120 ~seed () in
        let target = Milo_techmap.Table_map.ecl_target () in
        Milo_techmap.Table_map.map_design target src)
      [ 101; 102; 103 ]
  in
  let run_config name params =
    let stats = { Milo_rules.Search.nodes = 0; evals = 0 } in
    let (gain, base_area), t =
      time (fun () ->
          List.fold_left
            (fun (g, base) w ->
              let d = D.copy w in
              let ctx =
                R.make_context (Milo_library.Ecl.get ())
                  (Milo_compilers.Gate_comp.named_set ~prefix:"E_"
                     (Milo_library.Ecl.get ()))
                  d
              in
              let env name =
                Milo_library.Technology.find (Milo_library.Ecl.get ()) name
              in
              let cost_factory wctx () =
                Milo_estimate.Estimate.area env wctx.R.design
              in
              let before = cost_factory ctx () in
              let g' =
                Milo_rules.Search.run ~params ~stats ~cost_factory ctx
                  ~cleanups:Milo_critic.Critic.cleanup
                  (Milo_critic.Critic.logic @ Milo_critic.Critic.area)
              in
              (g +. g', base +. before))
            (0.0, 0.0) workloads)
    in
    (name, t, gain, base_area, stats.Milo_rules.Search.evals)
  in
  let greedy = run_config "greedy" Milo_rules.Metarules.fixed_greedy in
  let full = run_config "full-lookahead" Milo_rules.Metarules.fixed_full in
  let meta =
    run_config "metarules"
      (Milo_rules.Metarules.params_for ~cls:R.Area
         ~phase:Milo_rules.Metarules.Recovering_area)
  in
  let _, greedy_t, _, _, _ = greedy in
  List.iter
    (fun (name, t, gain, base, evals) ->
      Printf.printf "%-14s %10.2f %9.1fx %11.1f%% %8d\n" name t
        (t /. Float.max 1e-9 greedy_t)
        (100.0 *. gain /. base)
        evals)
    [ greedy; full; meta ];
  Printf.printf
    "paper reference: lookahead ~4x runtime for ~12%% more area gain;\n\
    \                 metarules cut that to ~2x with the same gain.\n"

(* --- E4: scaling (JoTr86) --------------------------------------------- *)

let scaling () =
  section "E4 / [JoTr86]: local-transformation synthesis time vs size";
  Printf.printf "%8s | %10s %10s %7s %6s | %10s %10s %7s %6s\n" "gates" "naive(s)"
    "gates/s" "firings" "comps" "rete(s)" "gates/s" "firings" "comps";
  List.iter
    (fun gates ->
      let src = Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates ~seed:7 () in
      let target = Milo_techmap.Table_map.ecl_target () in
      let run engine =
        let d = Milo_techmap.Table_map.map_design target src in
        let ctx =
          R.make_context (Milo_library.Ecl.get ())
            (Milo_compilers.Gate_comp.named_set ~prefix:"E_"
               (Milo_library.Ecl.get ()))
            d
        in
        let fired, t = time (fun () -> engine ctx) in
        (t, fired, D.num_comps d)
      in
      let rules = Milo_critic.Critic.logic @ Milo_critic.Critic.cleanup in
      let row (t, fired, comps) =
        Printf.sprintf "%10.3f %10.0f %7d %6d" t
          (float_of_int gates /. Float.max 1e-9 t)
          fired comps
      in
      let naive = run (fun ctx -> Milo_rules.Engine.ops_run ctx rules) in
      let rete =
        run (fun ctx -> Milo_rules.Engine.ops_run_incremental ctx rules)
      in
      Printf.printf "%8d | %s | %s\n%!" gates (row naive) (row rete))
    [ 200; 400; 800; 1200; 1600; 2000 ];
  Printf.printf
    "paper reference: LSS reports ~9 gates/s on an IBM 3081, roughly linear;\n\
     the naive matcher rescans every site per cycle (superlinear), the\n\
     Rete-style incremental matcher keeps its conflict set across firings\n\
     and fires the same sites.\n"

(* --- E5: strategy profiles -------------------------------------------- *)

let strategies () =
  section "E5 / Figure 9: per-strategy gain and cost profile";
  Printf.printf "%2s %-18s %10s %10s %10s %10s\n" "#" "strategy" "dDelay(ns)"
    "dArea" "dPower" "time(ms)";
  let target = Milo_techmap.Table_map.ecl_target () in
  let env name = Milo_library.Technology.find (Milo_library.Ecl.get ()) name in
  List.iter
    (fun (s : Milo_optimizer.Strategies.strategy) ->
      (* average over several workloads; a strategy may not apply
         everywhere *)
      let applied = ref 0 in
      let dd = ref 0.0 and da = ref 0.0 and dp = ref 0.0 and tt = ref 0.0 in
      List.iter
        (fun seed ->
          let src = Milo_designs.Workload.random_logic ~gates:60 ~seed () in
          let d = Milo_techmap.Table_map.map_design target src in
          let ctx =
            R.make_context (Milo_library.Ecl.get ())
              (Milo_compilers.Gate_comp.named_set ~prefix:"E_"
                 (Milo_library.Ecl.get ()))
              d
          in
          let sta = Milo_timing.Sta.analyze env d in
          match Milo_timing.Paths.most_critical sta with
          | None -> ()
          | Some path ->
              let delay0 = Milo_timing.Sta.worst_delay sta in
              let area0 = Milo_estimate.Estimate.area env d in
              let power0 = Milo_estimate.Estimate.power env d in
              let log = D.new_log () in
              let result, t =
                time (fun () -> s.Milo_optimizer.Strategies.run ctx sta path log)
              in
              (match result with
              | Milo_optimizer.Strategies.Applied _ ->
                  Milo_rules.Engine.run_cleanups ctx Milo_critic.Critic.cleanup
                    log;
                  let sta' = Milo_timing.Sta.analyze env d in
                  incr applied;
                  dd := !dd +. (delay0 -. Milo_timing.Sta.worst_delay sta');
                  da := !da +. (Milo_estimate.Estimate.area env d -. area0);
                  dp := !dp +. (Milo_estimate.Estimate.power env d -. power0);
                  tt := !tt +. t
              | Milo_optimizer.Strategies.Not_applicable -> D.undo d log))
        [ 201; 202; 203; 204; 205; 206 ];
      if !applied > 0 then
        let n = float_of_int !applied in
        Printf.printf "%2d %-18s %10.2f %10.2f %10.2f %10.2f\n"
          s.Milo_optimizer.Strategies.id s.Milo_optimizer.Strategies.strat_name
          (!dd /. n) (!da /. n) (!dp /. n)
          (1000.0 *. !tt /. n)
      else
        Printf.printf "%2d %-18s %10s\n" s.Milo_optimizer.Strategies.id
          s.Milo_optimizer.Strategies.strat_name "n/a")
    Milo_optimizer.Strategies.all;
  Printf.printf
    "paper reference: 1-2 free/tiny, 3-6 moderate, 7-8 large gain at cost.\n";
  (* Strategy 7's factoring on its worst case within 10 leaves: parity,
     whose QM cover keeps every minterm and has the most kernels. *)
  Printf.printf
    "\n%6s %6s %10s  (Factor.of_cover, QM-minimized parity, median of 3)\n"
    "inputs" "cubes" "time(ms)";
  List.iter
    (fun vars ->
      let rec odd m = m <> 0 && (m land 1 = 1) <> odd (m lsr 1) in
      let cover =
        Milo_minimize.Quine.minimize ~vars
          ~on:(List.filter odd (List.init (1 lsl vars) Fun.id))
          ~dc:[]
      in
      let times =
        List.sort compare
          (List.init 3 (fun _ ->
               snd (time (fun () -> Milo_minimize.Factor.of_cover cover))))
      in
      Printf.printf "%6d %6d %10.2f\n" vars
        (Milo_boolfunc.Cover.size cover)
        (1000.0 *. List.nth times 1))
    [ 6; 7; 8; 9; 10 ]

(* --- E6: the microarchitecture critic --------------------------------- *)

let microcritic () =
  section "E6 / Figures 14-15: adder+register -> counter";
  Printf.printf "%6s %12s %12s %12s %12s\n" "bits" "base delay" "MILO delay"
    "base area" "MILO area";
  List.iter
    (fun bits ->
      let design = Milo_designs.Suite.accumulator ~bits () in
      let human = Milo.Flow.baseline_stats ~technology:Milo.Flow.Ecl design in
      let res =
        Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
          ~constraints:(Milo.Constraints.delay (human.Milo.Flow.delay *. 0.8))
          design
      in
      Printf.printf "%6d %12.2f %12.2f %12.1f %12.1f   (%s)\n" bits
        human.Milo.Flow.delay res.Milo.Flow.final.Milo.Flow.delay
        human.Milo.Flow.area res.Milo.Flow.final.Milo.Flow.area
        (String.concat "," (List.map fst res.Milo.Flow.micro_applications)))
    [ 4; 8; 12; 16 ]

(* --- E7: the formula estimator ----------------------------------------- *)

let estimator () =
  section "E7 / Section 5: formula estimator vs compiled measurement (ECL)";
  Printf.printf "%-28s %9s %9s %7s %9s %9s %7s\n" "component" "est.area"
    "meas.area" "err%" "est.pwr" "meas.pwr" "err%";
  let kinds =
    [
      T.Gate (T.And, 4);
      T.Gate (T.Xor, 3);
      T.Multiplexor { bits = 4; inputs = 4; enable = false };
      T.Multiplexor { bits = 8; inputs = 2; enable = false };
      T.Decoder { bits = 3; enable = false };
      T.Comparator { bits = 8; fns = [ T.Eq; T.Lt; T.Gt ] };
      T.Arith_unit { bits = 8; fns = [ T.Add ]; mode = T.Ripple };
      T.Arith_unit { bits = 8; fns = [ T.Add ]; mode = T.Lookahead };
      T.Arith_unit { bits = 16; fns = [ T.Add; T.Sub ]; mode = T.Ripple };
      T.Register
        { bits = 8; kind = T.Edge_triggered; fns = [ T.Load ];
          controls = [ T.Reset ]; inverting = false };
      T.Register
        { bits = 8; kind = T.Edge_triggered; fns = [ T.Load; T.Shift_right ];
          controls = [ T.Reset ]; inverting = false };
      T.Counter { bits = 8; fns = [ T.Count_up ]; controls = [ T.Reset ] };
    ]
  in
  let db = Milo_compilers.Database.create () in
  let lib = Milo_library.Generic.get () in
  let target = Milo_techmap.Table_map.ecl_target () in
  let env name = Milo_library.Technology.find (Milo_library.Ecl.get ()) name in
  List.iter
    (fun kind ->
      let est =
        Milo_estimate.Estimate.micro
          ~coefficients:Milo_estimate.Estimate.ecl_coefficients kind
      in
      let flat = Milo_compilers.Compile.compile_flat db lib kind in
      let mapped = Milo_techmap.Table_map.map_design target flat in
      let area = Milo_estimate.Estimate.area env mapped in
      let power = Milo_estimate.Estimate.power env mapped in
      let err e m = 100.0 *. (e -. m) /. m in
      Printf.printf "%-28s %9.1f %9.1f %6.0f%% %9.1f %9.1f %6.0f%%\n"
        (T.kind_name kind) est.Milo_estimate.Estimate.est_area area
        (err est.Milo_estimate.Estimate.est_area area)
        est.Milo_estimate.Estimate.est_power power
        (err est.Milo_estimate.Estimate.est_power power))
    kinds

(* --- E8: DAGON vs the table mapper ------------------------------------- *)

let dagon () =
  section "E8 / [Ke87]: DAGON tree covering vs the MILO table mapper";
  Printf.printf "%-14s %12s %12s %12s %12s\n" "workload" "table area"
    "dagon area" "table delay" "dagon delay";
  let genv name = Milo_library.Technology.find (Milo_library.Generic.get ()) name in
  let env name = Milo_library.Technology.find (Milo_library.Ecl.get ()) name in
  let target = Milo_techmap.Table_map.ecl_target () in
  let measure d =
    ( Milo_estimate.Estimate.area env d,
      Milo_timing.Sta.worst_delay (Milo_timing.Sta.analyze env d) )
  in
  let row name src =
    let table = Milo_techmap.Table_map.map_design target src in
    let dag = Milo_techmap.Dagon.map_design target genv src in
    let ta, td = measure table in
    let da, dd = measure dag in
    Printf.printf "%-14s %12.1f %12.1f %12.2f %12.2f\n" name ta da td dd
  in
  List.iter
    (fun seed ->
      row
        (Printf.sprintf "random-%d" seed)
        (Milo_designs.Workload.random_logic ~gates:80 ~seed ()))
    [ 301; 302 ];
  row "msi-rich" (Milo_designs.Workload.msi_rich ());
  Printf.printf
    "paper reference: DAGON is locally optimal over gate patterns, but\n\
     MILO's retained MSI macros win where the library has them (Sec 6.4).\n"

(* --- E9: the three control disciplines --------------------------------- *)

let disciplines () =
  section
    "E9 / Figure 6: rules-only multi-level (LSS) vs mixed (MILO) vs \
     algorithms-only (DAGON) on the Figure 19 designs";
  Printf.printf "%-8s %10s | %10s %10s %10s\n" "design" "baseline" "LSS" "MILO"
    "DAGON";
  let env name = Milo_library.Technology.find (Milo_library.Ecl.get ()) name in
  let genv name =
    Milo_library.Technology.find (Milo_library.Generic.get ()) name
  in
  let target = Milo_techmap.Table_map.ecl_target () in
  List.iter
    (fun (c : Milo_designs.Suite.case) ->
      let design = c.Milo_designs.Suite.case_design in
      let area d = Milo_estimate.Estimate.area env d in
      let baseline, db0 =
        Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl design
      in
      let lss, _ =
        Milo_baselines.Lss.optimize (Milo_compilers.Database.create ()) design
      in
      let milo =
        (Milo.Flow.run_exn ~technology:Milo.Flow.Ecl
           ~constraints:c.Milo_designs.Suite.constraints design)
          .Milo.Flow.optimized
      in
      let dagon =
        let expanded =
          Milo_compilers.Compile.expand_design db0
            (Milo_library.Generic.get ())
            design
        in
        let flat = Milo_compilers.Database.flatten db0 expanded in
        Milo_techmap.Dagon.map_design target genv flat
      in
      Printf.printf "%-8s %10.1f | %10.1f %10.1f %10.1f\n"
        c.Milo_designs.Suite.case_name (area baseline) (area lss) (area milo)
        (area dagon))
    (Milo_designs.Suite.all ());
  Printf.printf
    "paper reference: decomposing MSI macros into gates loses high-level\n\
     information (Section 2.1.2 / 6.4); MILO keeps it and wins on the\n\
     structured designs.\n"

(* --- Bechamel micro-benchmarks ----------------------------------------- *)

let bechamel () =
  section "Bechamel micro-benchmarks (one kernel per experiment)";
  let open Bechamel in
  let design3 = (Milo_designs.Suite.design3 ()).Milo_designs.Suite.case_design in
  let d3c = (Milo_designs.Suite.design3 ()).Milo_designs.Suite.constraints in
  let mapped =
    let src = Milo_designs.Workload.random_logic ~gates:60 ~seed:71 () in
    Milo_techmap.Table_map.map_design (Milo_techmap.Table_map.ecl_target ()) src
  in
  let env name = Milo_library.Technology.find (Milo_library.Ecl.get ()) name in
  let genv name = Milo_library.Technology.find (Milo_library.Generic.get ()) name in
  let dagon_src = Milo_designs.Workload.random_logic ~gates:40 ~seed:72 () in
  let tt5 = Milo_boolfunc.Truth_table.create 5 0x6a3c95f1L in
  let design7, _ =
    Milo.Flow.human_baseline
      (Milo_designs.Suite.design7 ()).Milo_designs.Suite.case_design
  in
  let ecl_env =
    Milo_absint.Absint.env_of_techs
      [ Milo_library.Ecl.get (); Milo_library.Generic.get () ]
  in
  (* flowbench's 150-gate random logic, mapped as the human baseline,
     and its required delay there: half the baseline's. *)
  let rl150 =
    fst
      (Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
         (Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates:150
            ~seed:7 ()))
  in
  let rl150_required =
    0.5 *. Milo_timing.Sta.worst_delay (Milo_timing.Sta.analyze env rl150)
  in
  let tests =
    [
      Test.make ~name:"E1-flow-design3"
        (Staged.stage (fun () ->
             ignore
               (Milo.Flow.run_exn ~technology:Milo.Flow.Ecl ~constraints:d3c design3)));
      Test.make ~name:"E4-ops-pass"
        (Staged.stage (fun () ->
             let d = D.copy mapped in
             let ctx =
               R.make_context (Milo_library.Ecl.get ())
                 (Milo_compilers.Gate_comp.named_set ~prefix:"E_"
                    (Milo_library.Ecl.get ()))
                 d
             in
             ignore
               (Milo_rules.Engine.ops_run ctx
                  (Milo_critic.Critic.logic @ Milo_critic.Critic.cleanup))));
      Test.make ~name:"E5-sta"
        (Staged.stage (fun () ->
             ignore (Milo_timing.Sta.analyze env mapped)));
      Test.make ~name:"E7-quine-5var"
        (Staged.stage (fun () ->
             ignore
               (Milo_minimize.Quine.minimize ~vars:5
                  ~on:[ 0; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31 ]
                  ~dc:[ 2; 8 ])));
      Test.make ~name:"E8-dagon-map"
        (Staged.stage (fun () ->
             ignore
               (Milo_techmap.Dagon.map_design
                  (Milo_techmap.Table_map.ecl_target ())
                  genv dagon_src)));
      Test.make ~name:"E8-table-map"
        (Staged.stage (fun () ->
             ignore
               (Milo_techmap.Table_map.map_design
                  (Milo_techmap.Table_map.ecl_target ())
                  dagon_src)));
      Test.make ~name:"canonical-key-5var"
        (Staged.stage (fun () ->
             ignore (Milo_boolfunc.Truth_table.canonical_key tt5)));
      Test.make ~name:"absint-design7-cold"
        (Staged.stage (fun () ->
             ignore (Milo_absint.Absint.analyze ecl_env design7)));
      Test.make ~name:"time-opt-rl150"
        (Staged.stage (fun () ->
             let ecl = Milo_library.Ecl.get () in
             let d = D.copy rl150 in
             let ctx =
               R.make_context ecl
                 (Milo_compilers.Gate_comp.named_set ~prefix:"E_" ecl)
                 d
             in
             ctx.R.measurer := Some (Milo_measure.Measure.create ecl d);
             ignore
               (Milo_optimizer.Time_opt.optimize ~required:rl150_required
                  ~cleanups:Milo_critic.Critic.cleanup ctx)));
    ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:Measure.[| run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "  %-20s %12.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-20s (no estimate)\n%!" name)
        results)
    tests

(* --- Budgeted smoke run ------------------------------------------------ *)

(* A tight-budget flow over design3: exercises the checkpoint/budget
   machinery end to end in milliseconds.  Wired into the runtest alias
   so every test run proves a 0-step budget still yields a mapped
   design. *)
let smoke () =
  section "smoke: design3 flow under a 0-step budget";
  let c = Milo_designs.Suite.design3 () in
  let budget = Milo_rules.Budget.make ~max_steps:0 () in
  match
    Milo.Flow.run ~technology:Milo.Flow.Ecl
      ~constraints:c.Milo_designs.Suite.constraints ~budget
      c.Milo_designs.Suite.case_design
  with
  | Milo.Flow.Complete res ->
      let b = res.Milo.Flow.budget in
      Printf.printf "complete: %d comps mapped, %s\n"
        (D.num_comps res.Milo.Flow.optimized)
        (Format.asprintf "%a" Milo_rules.Budget.pp_status b);
      if not b.Milo_rules.Budget.budget_exhausted then begin
        Printf.printf "smoke: budget_exhausted not set\n";
        exit 1
      end
  | Milo.Flow.Partial p ->
      Printf.printf "smoke: degraded at %s: %s\n"
        (Milo.Flow.stage_name p.Milo.Flow.failed_stage)
        p.Milo.Flow.failure.Milo.Flow.err_message;
      exit 1

(* --- E9: incremental measurement throughput ---------------------------- *)

(* Full-vs-incremental candidate-evaluation throughput over the largest
   mapped suite design: the same candidate set is evaluated by
   [Engine.evaluate] with a full recompute per candidate
   ([Engine.measure_fn]) and with the incremental measurer (delta-STA +
   streaming estimates), after a differential-oracle pass proving both
   agree.  Results land in BENCH_measure.json so the perf trajectory is
   tracked.  `measure smoke` is the runtest-wired variant: tiny design,
   the oracle pass asserted, the speedup only reported — a ratio
   measured on a 40-gate design is no gate for tier-1. *)

module Measure = Milo_measure.Measure

let median = function
  | [] -> 0.0
  | xs ->
      let s = List.sort compare xs in
      List.nth s (List.length s / 2)

let measure_bench ~smoke_mode () =
  section
    (if smoke_mode then "E9 / measure smoke: incremental vs full evaluation"
     else "E9 / measure: incremental vs full evaluation throughput");
  let ecl = Milo_library.Ecl.get () in
  let name, mapped =
    if smoke_mode then begin
      let d = Milo_designs.Workload.random_logic ~gates:40 ~seed:17 () in
      let target = Milo_techmap.Table_map.ecl_target () in
      ("workload_g40_s17", Milo_techmap.Table_map.map_design target d)
    end
    else
      (* the largest suite design by mapped component count *)
      List.fold_left
        (fun acc (c : Milo_designs.Suite.case) ->
          let m, _ =
            Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              c.Milo_designs.Suite.case_design
          in
          match acc with
          | _, best when D.num_comps best >= D.num_comps m -> acc
          | _ -> (c.Milo_designs.Suite.case_name, m))
        ("design1",
         fst
           (Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              (Milo_designs.Suite.design1 ()).Milo_designs.Suite.case_design))
        (Milo_designs.Suite.all ())
  in
  Printf.printf "design %s: %d comps\n%!" name (D.num_comps mapped);
  let rules =
    Milo_critic.Critic.logic @ Milo_critic.Critic.area
    @ Milo_critic.Critic.power
  in
  let max_cands = if smoke_mode then 30 else 150 in
  let trials = if smoke_mode then 3 else 5 in
  let fresh () =
    let d = D.copy mapped in
    let ctx =
      R.make_context ecl
        (Milo_compilers.Gate_comp.named_set ~prefix:"E_" ecl)
        d
    in
    (d, ctx)
  in
  let candidates ctx =
    let all =
      List.concat_map
        (fun (r : R.t) ->
          List.map (fun s -> (r, s)) (Milo_rules.Engine.guarded_find ctx r))
        rules
    in
    List.filteri (fun i _ -> i < max_cands) all
  in
  (* Oracle phase: every advance/retreat of a limited candidate sweep is
     cross-checked against a full recompute; any disagreement raises. *)
  let oracle_checks =
    let d, ctx = fresh () in
    let m = Measure.create ~input_arrivals:[] ecl d in
    ctx.R.measurer := Some m;
    Measure.set_debug_check true;
    let cost () = Milo_rules.Engine.weighted () (Measure.current m) in
    let n = if smoke_mode then 10 else 40 in
    let result =
      try
        let before = cost () in
        List.iteri
          (fun i (r, s) ->
            if i < n then
              ignore
                (Milo_rules.Engine.evaluate ctx ~before ~cost ~quiet:false
                   ~cleanups:[] r s))
          (candidates ctx);
        Ok (Measure.stats m).Measure.oracle_checks
      with Measure.Divergence msg -> Error msg
    in
    Measure.set_debug_check false;
    match result with
    | Ok checks ->
        Printf.printf "oracle: %d checks, 0 divergences\n%!" checks;
        checks
    | Error msg ->
        Printf.printf "measure: oracle divergence: %s\n" msg;
        exit 1
  in
  let eval_all ctx ~cleanups cost cands =
    let (), t =
      time (fun () ->
          let before = cost () in
          List.iter
            (fun (r, s) ->
              ignore
                (Milo_rules.Engine.evaluate ctx ~before ~cost ~quiet:false
                   ~cleanups r s))
            cands)
    in
    Float.max t 1e-9
  in
  let run_full ~cleanups () =
    let _, ctx = fresh () in
    let cost () =
      Milo_rules.Engine.weighted ()
        (Milo_rules.Engine.measure_fn ctx ~input_arrivals:[] ())
    in
    let cands = candidates ctx in
    (List.length cands, eval_all ctx ~cleanups cost cands)
  in
  let last_stats = ref None in
  let run_incr ~cleanups () =
    let d, ctx = fresh () in
    let m = Measure.create ~input_arrivals:[] ecl d in
    ctx.R.measurer := Some m;
    let cost () = Milo_rules.Engine.weighted () (Measure.current m) in
    let cands = candidates ctx in
    let t = eval_all ctx ~cleanups cost cands in
    last_stats := Some (Measure.stats m);
    (List.length cands, t)
  in
  let speedups = ref [] in
  let full_times = ref [] and incr_times = ref [] in
  let n_cands = ref 0 in
  for _ = 1 to trials do
    let nf, tf = run_full ~cleanups:[] () in
    let _, ti = run_incr ~cleanups:[] () in
    n_cands := nf;
    full_times := tf :: !full_times;
    incr_times := ti :: !incr_times;
    speedups := (tf /. ti) :: !speedups
  done;
  let nf, tfc = run_full ~cleanups:Milo_critic.Critic.cleanup () in
  let _, tic = run_incr ~cleanups:Milo_critic.Critic.cleanup () in
  ignore nf;
  let speedup_cleanups = tfc /. tic in
  let speedup_median = median !speedups in
  let tf_med = median !full_times and ti_med = median !incr_times in
  let full_eps = float_of_int !n_cands /. tf_med in
  let incr_eps = float_of_int !n_cands /. ti_med in
  let stats =
    match !last_stats with
    | Some s -> s
    | None ->
        {
          Measure.advances = 0; retreats = 0; commits = 0; resyncs = 0;
          env_hits = 0; env_misses = 0; oracle_checks = 0;
        }
  in
  let hit_rate =
    let total = stats.Measure.env_hits + stats.Measure.env_misses in
    if total = 0 then 0.0
    else float_of_int stats.Measure.env_hits /. float_of_int total
  in
  Printf.printf
    "%d candidates x %d trials\n\
     full:        %8.1f evals/s (median)\n\
     incremental: %8.1f evals/s (median)\n\
     speedup (median, pure measurement): %.2fx\n\
     speedup (with cleanup lookahead):   %.2fx\n\
     env cache hit rate: %.3f\n%!"
    !n_cands trials full_eps incr_eps speedup_median speedup_cleanups hit_rate;
  write_bench "BENCH_measure.json"
    [
      ("design", Printf.sprintf "%S" name);
      ("comps", string_of_int (D.num_comps mapped));
      ("candidates", string_of_int !n_cands);
      ("trials", string_of_int trials);
      ("smoke", string_of_bool smoke_mode);
      ("full_evals_per_sec", Printf.sprintf "%.2f" full_eps);
      ("incremental_evals_per_sec", Printf.sprintf "%.2f" incr_eps);
      ("speedup_median", Printf.sprintf "%.3f" speedup_median);
      ( "speedups",
        "["
        ^ String.concat ", "
            (List.map (Printf.sprintf "%.3f") (List.rev !speedups))
        ^ "]" );
      ("speedup_with_cleanups", Printf.sprintf "%.3f" speedup_cleanups);
      ("env_cache_hit_rate", Printf.sprintf "%.4f" hit_rate);
      ("advances", string_of_int stats.Measure.advances);
      ("retreats", string_of_int stats.Measure.retreats);
      ("oracle_checks", string_of_int oracle_checks);
      ("divergences", "0");
    ]

(* --- E10: tracing overhead --------------------------------------------- *)

(* Wall-time of the full flow with tracing off, with a plain in-memory
   tracer, and with a JSONL streaming sink attached.  Min-of-trials keeps
   scheduler noise out of the comparison.  `trace-overhead smoke` runs on
   the small design3 case and asserts the in-memory tracer costs < 5%
   (plus a 5 ms absolute slack for sub-100ms runs); it lives on its own
   @trace_overhead alias rather than runtest so timing jitter can never
   fail the tier-1 suite. *)

let trace_overhead ~smoke_mode () =
  section
    (if smoke_mode then "E10 / trace-overhead smoke: tracing cost on design3"
     else "E10 / trace-overhead: tracing cost on the largest suite design");
  let case =
    if smoke_mode then Milo_designs.Suite.design3 ()
    else
      (* largest suite case by mapped component count *)
      List.fold_left
        (fun (acc : Milo_designs.Suite.case) (c : Milo_designs.Suite.case) ->
          let m, _ =
            Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              c.Milo_designs.Suite.case_design
          in
          let ma, _ =
            Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              acc.Milo_designs.Suite.case_design
          in
          if D.num_comps m > D.num_comps ma then c else acc)
        (Milo_designs.Suite.design1 ())
        (Milo_designs.Suite.all ())
  in
  let name = case.Milo_designs.Suite.case_name in
  let trials = if smoke_mode then 3 else 5 in
  let max_steps = if smoke_mode then 10 else 200 in
  let run_flow ?trace () =
    let budget = Milo_rules.Budget.make ~max_steps () in
    match
      Milo.Flow.run ?trace ~technology:Milo.Flow.Ecl
        ~constraints:case.Milo_designs.Suite.constraints ~budget
        case.Milo_designs.Suite.case_design
    with
    | Milo.Flow.Complete _ -> ()
    | Milo.Flow.Partial p ->
        Printf.printf "trace-overhead: flow degraded at %s: %s\n"
          (Milo.Flow.stage_name p.Milo.Flow.failed_stage)
          p.Milo.Flow.failure.Milo.Flow.err_message;
        exit 1
  in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to trials do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  (* warm-up: libraries, compiler memo tables, suite laziness *)
  run_flow ();
  let off_min = min_of (fun () -> run_flow ()) in
  let last_spans = ref 0 in
  let mem_min =
    min_of (fun () ->
        let t = Milo_trace.Trace.create () in
        run_flow ~trace:t ();
        last_spans := List.length (Milo_trace.Trace.spans t))
  in
  let jsonl_min =
    min_of (fun () ->
        let path = Filename.temp_file "milo_trace" ".jsonl" in
        let oc = open_out path in
        let t = Milo_trace.Trace.create () in
        Milo_trace.Trace.add_sink t (Milo_trace.Export.jsonl_sink oc);
        run_flow ~trace:t ();
        close_out oc;
        Sys.remove path)
  in
  let pct base v = (v -. base) /. base *. 100.0 in
  Printf.printf
    "design %s, %d trials (min), %d spans per traced run\n\
     off:       %8.2f ms\n\
     in-memory: %8.2f ms  (%+.1f%%)\n\
     jsonl:     %8.2f ms  (%+.1f%%)\n%!"
    name trials !last_spans (off_min *. 1e3) (mem_min *. 1e3)
    (pct off_min mem_min) (jsonl_min *. 1e3) (pct off_min jsonl_min);
  write_bench "BENCH_trace.json"
    [
      ("design", Printf.sprintf "%S" name);
      ("trials", string_of_int trials);
      ("smoke", string_of_bool smoke_mode);
      ("spans", string_of_int !last_spans);
      ("off_ms", Printf.sprintf "%.3f" (off_min *. 1e3));
      ("in_memory_ms", Printf.sprintf "%.3f" (mem_min *. 1e3));
      ("jsonl_ms", Printf.sprintf "%.3f" (jsonl_min *. 1e3));
      ("in_memory_overhead_pct", Printf.sprintf "%.2f" (pct off_min mem_min));
      ("jsonl_overhead_pct", Printf.sprintf "%.2f" (pct off_min jsonl_min));
    ];
  if smoke_mode && mem_min >= (off_min *. 1.05) +. 0.005 then begin
    Printf.printf
      "trace-overhead smoke: in-memory tracer too slow (%.2f ms vs %.2f ms)\n"
      (mem_min *. 1e3) (off_min *. 1e3);
    exit 1
  end

(* --- E14: trajectory-recording overhead --------------------------------- *)

(* Wall-time of the full flow with the provenance recorder off, on
   (in-memory), and with the trajectory JSONL sink streaming.  Same
   min-of-trials discipline as trace-overhead.  `trajectory smoke`
   asserts the in-memory recorder costs < 5% (plus a 5 ms absolute
   slack for sub-100ms runs) and writes BENCH_trajectory.json; it lives
   on its own @trajectory_overhead alias rather than runtest so timing
   jitter can never fail the tier-1 suite. *)

let trajectory_bench ~smoke_mode () =
  section
    (if smoke_mode then
       "E14 / trajectory smoke: provenance recording cost on design3"
     else
       "E14 / trajectory: provenance recording cost on the largest suite \
        design");
  let case =
    if smoke_mode then Milo_designs.Suite.design3 ()
    else
      List.fold_left
        (fun (acc : Milo_designs.Suite.case) (c : Milo_designs.Suite.case) ->
          let m, _ =
            Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              c.Milo_designs.Suite.case_design
          in
          let ma, _ =
            Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              acc.Milo_designs.Suite.case_design
          in
          if D.num_comps m > D.num_comps ma then c else acc)
        (Milo_designs.Suite.design1 ())
        (Milo_designs.Suite.all ())
  in
  let name = case.Milo_designs.Suite.case_name in
  let trials = if smoke_mode then 3 else 5 in
  let max_steps = if smoke_mode then 10 else 200 in
  let run_flow ?provenance () =
    let budget = Milo_rules.Budget.make ~max_steps () in
    match
      Milo.Flow.run ?provenance ~technology:Milo.Flow.Ecl
        ~constraints:case.Milo_designs.Suite.constraints ~budget
        case.Milo_designs.Suite.case_design
    with
    | Milo.Flow.Complete _ -> ()
    | Milo.Flow.Partial p ->
        Printf.printf "trajectory: flow degraded at %s: %s\n"
          (Milo.Flow.stage_name p.Milo.Flow.failed_stage)
          p.Milo.Flow.failure.Milo.Flow.err_message;
        exit 1
  in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to trials do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  (* warm-up: libraries, compiler memo tables, suite laziness *)
  run_flow ();
  let off_min = min_of (fun () -> run_flow ()) in
  let last_events = ref 0 in
  let on_min =
    min_of (fun () ->
        let p = Milo_provenance.Provenance.create () in
        run_flow ~provenance:p ();
        last_events := List.length (Milo_provenance.Provenance.events p))
  in
  let jsonl_min =
    min_of (fun () ->
        let path = Filename.temp_file "milo_traj" ".jsonl" in
        let oc = open_out path in
        let p = Milo_provenance.Provenance.create () in
        Milo_provenance.Provenance.add_sink p
          (Milo_provenance.Trajectory.sink oc);
        run_flow ~provenance:p ();
        close_out oc;
        Sys.remove path)
  in
  let pct base v = (v -. base) /. base *. 100.0 in
  Printf.printf
    "design %s, %d trials (min), %d events per recorded run\n\
     off:      %8.2f ms\n\
     recorded: %8.2f ms  (%+.1f%%)\n\
     jsonl:    %8.2f ms  (%+.1f%%)\n%!"
    name trials !last_events (off_min *. 1e3) (on_min *. 1e3)
    (pct off_min on_min) (jsonl_min *. 1e3) (pct off_min jsonl_min);
  write_bench "BENCH_trajectory.json"
    [
      ("design", Printf.sprintf "%S" name);
      ("trials", string_of_int trials);
      ("smoke", string_of_bool smoke_mode);
      ("events", string_of_int !last_events);
      ("off_ms", Printf.sprintf "%.3f" (off_min *. 1e3));
      ("recorded_ms", Printf.sprintf "%.3f" (on_min *. 1e3));
      ("jsonl_ms", Printf.sprintf "%.3f" (jsonl_min *. 1e3));
      ("recorded_overhead_pct", Printf.sprintf "%.2f" (pct off_min on_min));
      ("jsonl_overhead_pct", Printf.sprintf "%.2f" (pct off_min jsonl_min));
    ];
  if smoke_mode && on_min >= (off_min *. 1.05) +. 0.005 then begin
    Printf.printf
      "trajectory smoke: provenance recorder too slow (%.2f ms vs %.2f ms)\n"
      (on_min *. 1e3) (off_min *. 1e3);
    exit 1
  end

(* --- E11: semantic-guard overhead --------------------------------------- *)

(* Wall-time of the full flow with the semantic guard off, sampled and
   full.  Min-of-trials, like trace-overhead.  `guard-overhead smoke`
   runs on the small design3 case and asserts the sampled tier costs
   < 10% (plus a 5 ms absolute slack for sub-100ms runs); it lives on
   its own @guard_overhead alias rather than runtest so timing jitter
   can never fail the tier-1 suite. *)

let guard_overhead ~smoke_mode () =
  section
    (if smoke_mode then
       "E11 / guard-overhead smoke: semantic-guard cost, combinational \
        suite designs"
     else "E11 / guard-overhead: semantic-guard cost on the example suite");
  let cases =
    (* combinational subset for smoke: enough work to amortize the
       fixed per-stage checking cost, no lock-step sequential runs *)
    if smoke_mode then
      [
        Milo_designs.Suite.design1 ();
        Milo_designs.Suite.design2 ();
        Milo_designs.Suite.design3 ();
        Milo_designs.Suite.design5 ();
      ]
    else Milo_designs.Suite.all ()
  in
  let name =
    String.concat ","
      (List.map
         (fun (c : Milo_designs.Suite.case) -> c.Milo_designs.Suite.case_name)
         cases)
  in
  let trials = if smoke_mode then 3 else 5 in
  let max_steps = if smoke_mode then 10 else 200 in
  let guard_stats = ref (Milo_guard.Guard.fresh_stats ()) in
  let run_flow guard () =
    List.iter
      (fun (case : Milo_designs.Suite.case) ->
        let budget = Milo_rules.Budget.make ~max_steps () in
        match
          (* [~certify:false]: this experiment measures the dynamic
             guard alone; the certification win is E12's subject. *)
          Milo.Flow.run ~technology:Milo.Flow.Ecl
            ~constraints:case.Milo_designs.Suite.constraints ~budget ~guard
            ~certify:false case.Milo_designs.Suite.case_design
        with
        | Milo.Flow.Complete res -> guard_stats := res.Milo.Flow.guard_stats
        | Milo.Flow.Partial p ->
            Printf.printf "guard-overhead: flow degraded at %s: %s\n"
              (Milo.Flow.stage_name p.Milo.Flow.failed_stage)
              p.Milo.Flow.failure.Milo.Flow.err_message;
            exit 1)
      cases
  in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to trials do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  (* warm-up: libraries, compiler memo tables, suite laziness *)
  run_flow Milo_guard.Guard.Off ();
  let off_min = min_of (run_flow Milo_guard.Guard.Off) in
  let sampled_min = min_of (run_flow Milo_guard.Guard.Sampled) in
  let sampled_stats = !guard_stats in
  let full_min = min_of (run_flow Milo_guard.Guard.Full) in
  let full_stats = !guard_stats in
  let pct base v = (v -. base) /. base *. 100.0 in
  let pp_guard (s : Milo_guard.Guard.stats) =
    Printf.sprintf "%d stage + %d rule checks, %d skipped"
      s.Milo_guard.Guard.stage_checks s.Milo_guard.Guard.rule_checks
      s.Milo_guard.Guard.rule_skipped
  in
  Printf.printf
    "designs %s, %d trials (min)\n\
     off:     %8.2f ms\n\
     sampled: %8.2f ms  (%+.1f%%)  last run: %s\n\
     full:    %8.2f ms  (%+.1f%%)  last run: %s\n%!"
    name trials (off_min *. 1e3) (sampled_min *. 1e3)
    (pct off_min sampled_min)
    (pp_guard sampled_stats) (full_min *. 1e3) (pct off_min full_min)
    (pp_guard full_stats);
  write_bench "BENCH_guard.json"
    [
      ("designs", Printf.sprintf "%S" name);
      ("trials", string_of_int trials);
      ("smoke", string_of_bool smoke_mode);
      ("off_ms", Printf.sprintf "%.3f" (off_min *. 1e3));
      ("sampled_ms", Printf.sprintf "%.3f" (sampled_min *. 1e3));
      ("full_ms", Printf.sprintf "%.3f" (full_min *. 1e3));
      ("sampled_overhead_pct", Printf.sprintf "%.2f" (pct off_min sampled_min));
      ("full_overhead_pct", Printf.sprintf "%.2f" (pct off_min full_min));
      ( "sampled_stage_checks",
        string_of_int sampled_stats.Milo_guard.Guard.stage_checks );
      ( "sampled_rule_checks",
        string_of_int sampled_stats.Milo_guard.Guard.rule_checks );
      ( "sampled_rule_skipped",
        string_of_int sampled_stats.Milo_guard.Guard.rule_skipped );
      ( "full_stage_checks",
        string_of_int full_stats.Milo_guard.Guard.stage_checks );
      ( "full_rule_checks",
        string_of_int full_stats.Milo_guard.Guard.rule_checks );
    ];
  if smoke_mode && sampled_min >= (off_min *. 1.10) +. 0.005 then begin
    Printf.printf
      "guard-overhead smoke: sampled tier too slow (%.2f ms vs %.2f ms)\n"
      (sampled_min *. 1e3) (off_min *. 1e3);
    exit 1
  end

(* --- E13: journal overhead + crash recovery ----------------------------- *)

(* Wall-time of the flow with and without the write-ahead journal, plus
   the cost of recovery: the journaled flow is killed after every
   checkpoint record and resumed, and the resume wall-time reported.
   Min-of-trials for the throughput comparison, like trace-overhead.
   `journal smoke` runs on design3 and asserts journaling costs < 10%
   (plus a 5 ms absolute slack for sub-100ms runs); it lives on its own
   @journal_overhead alias rather than runtest so timing jitter can
   never fail the tier-1 suite. *)

let journal_bench ~smoke_mode () =
  section
    (if smoke_mode then
       "E13 / journal smoke: write-ahead journal cost + crash recovery"
     else "E13 / journal: write-ahead journal cost on the suite designs");
  let module J = Milo_journal.Journal in
  let cases =
    if smoke_mode then [ Milo_designs.Suite.design3 () ]
    else Milo_designs.Suite.all ()
  in
  let name =
    String.concat ","
      (List.map
         (fun (c : Milo_designs.Suite.case) -> c.Milo_designs.Suite.case_name)
         cases)
  in
  let trials = if smoke_mode then 3 else 5 in
  let max_steps = if smoke_mode then 10 else 200 in
  let journal_path = Filename.temp_file "milo_bench_journal" ".mjl" in
  let run_flow ?journal ?journal_fault () =
    List.iter
      (fun (case : Milo_designs.Suite.case) ->
        let budget = Milo_rules.Budget.make ~max_steps () in
        match
          Milo.Flow.run ~technology:Milo.Flow.Ecl
            ~constraints:case.Milo_designs.Suite.constraints ~budget ?journal
            ?journal_fault case.Milo_designs.Suite.case_design
        with
        | Milo.Flow.Complete _ -> ()
        | Milo.Flow.Partial p ->
            Printf.printf "journal: flow degraded at %s: %s\n"
              (Milo.Flow.stage_name p.Milo.Flow.failed_stage)
              p.Milo.Flow.failure.Milo.Flow.err_message;
            exit 1)
      cases
  in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to trials do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  (* warm-up: libraries, compiler memo tables, suite laziness *)
  run_flow ();
  let off_min = min_of (fun () -> run_flow ()) in
  let on_min = min_of (fun () -> run_flow ~journal:journal_path ()) in
  let journal_bytes = (Unix.stat journal_path).Unix.st_size in
  let records = List.length (J.recover journal_path).J.r_records in
  (* Recovery: kill the first case's journaled run after every
     checkpoint record, resume each time, and report the mean resume
     wall-time. *)
  let case = List.hd cases in
  let single n =
    let budget = Milo_rules.Budget.make ~max_steps () in
    match
      Milo.Flow.run ~technology:Milo.Flow.Ecl
        ~constraints:case.Milo_designs.Suite.constraints ~budget
        ~journal:journal_path
        ~journal_fault:(fun c -> if c >= n then raise (J.Crash c))
        case.Milo_designs.Suite.case_design
    with
    | _ -> false
    | exception J.Crash _ -> true
  in
  ignore (single max_int);
  let ck_indices =
    List.filteri (fun _ r -> match r with J.Checkpoint _ -> true | _ -> false)
      (J.recover journal_path).J.r_records
    |> List.length
  in
  let resumes = ref 0 and resume_total = ref 0.0 in
  List.iteri
    (fun i r ->
      match r with
      | J.Checkpoint _ ->
          if single (i + 1) then begin
            let (), t = time (fun () -> ignore (Milo.Flow.resume journal_path)) in
            incr resumes;
            resume_total := !resume_total +. t
          end
      | _ -> ())
    (J.recover journal_path).J.r_records;
  Sys.remove journal_path;
  let resume_mean =
    if !resumes = 0 then 0.0 else !resume_total /. float_of_int !resumes
  in
  let pct base v = (v -. base) /. base *. 100.0 in
  Printf.printf
    "designs %s, %d trials (min), %d records (%d bytes), %d checkpoints\n\
     off:       %8.2f ms\n\
     journaled: %8.2f ms  (%+.1f%%)\n\
     resume:    %8.2f ms mean over %d crash points\n%!"
    name trials records journal_bytes ck_indices (off_min *. 1e3)
    (on_min *. 1e3) (pct off_min on_min) (resume_mean *. 1e3) !resumes;
  write_bench "BENCH_journal.json"
    [
      ("designs", Printf.sprintf "%S" name);
      ("trials", string_of_int trials);
      ("smoke", string_of_bool smoke_mode);
      ("records", string_of_int records);
      ("journal_bytes", string_of_int journal_bytes);
      ("checkpoints", string_of_int ck_indices);
      ("off_ms", Printf.sprintf "%.3f" (off_min *. 1e3));
      ("journaled_ms", Printf.sprintf "%.3f" (on_min *. 1e3));
      ("journal_overhead_pct", Printf.sprintf "%.2f" (pct off_min on_min));
      ("resume_points", string_of_int !resumes);
      ("resume_mean_ms", Printf.sprintf "%.3f" (resume_mean *. 1e3));
    ];
  if smoke_mode && on_min >= (off_min *. 1.10) +. 0.005 then begin
    Printf.printf "journal smoke: journaling too slow (%.2f ms vs %.2f ms)\n"
      (on_min *. 1e3) (off_min *. 1e3);
    exit 1
  end

(* --- E12: abstract interpretation + static rule certification ----------- *)

(* Three measurements: (a) the abstract-interpretation fixpoint
   wall-time per mapped suite design; (b) the certified fraction of the
   logic-level rule set (with the one-off proving cost); (c) the
   Full-guard flow overhead with and without static certification — the
   point of the certificates is to collapse (c).  `analyze smoke` runs
   on every test sweep and reports the payoff ratio without asserting
   it: timing ratios on small designs are too noisy to gate tier-1. *)

let analyze_bench ~smoke_mode () =
  section
    (if smoke_mode then
       "E12 / analyze smoke: absint fixpoint + rule-certification payoff"
     else "E12 / analyze: absint fixpoint + rule-certification payoff");
  let cases =
    (* Rule-check-heavy subset for smoke: certification removes the
       per-application cone checks, not the stage-boundary equivalence
       checks, so designs whose guard cost is mostly lock-step
       sequential stage checks (design2) would drown the measured
       payoff in a cost that is out of certification's reach. *)
    if smoke_mode then
      [
        Milo_designs.Suite.design1 ();
        Milo_designs.Suite.design3 ();
        Milo_designs.Suite.design5 ();
      ]
    else Milo_designs.Suite.all ()
  in
  let name =
    String.concat ","
      (List.map
         (fun (c : Milo_designs.Suite.case) -> c.Milo_designs.Suite.case_name)
         cases)
  in
  let trials = if smoke_mode then 3 else 5 in
  (* More steps than the guard-overhead smoke: the per-application cone
     checks are what certification removes, so the measured payoff
     grows with the number of applications. *)
  let max_steps = if smoke_mode then 60 else 200 in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to trials do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  let target = Milo.Flow.target_of Milo.Flow.Ecl in
  let techs =
    [ target.Milo_techmap.Table_map.tech; Milo_library.Generic.get () ]
  in
  let env = Milo_absint.Absint.env_of_techs techs in
  (* (a) full fixpoint (constants + liveness + observability) per
     mapped design; [summary] forces it *)
  let fixpoints =
    List.map
      (fun (case : Milo_designs.Suite.case) ->
        let mapped, _ =
          Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
            case.Milo_designs.Suite.case_design
        in
        let t =
          min_of (fun () ->
              ignore (Milo_absint.Absint.summary
                        (Milo_absint.Absint.analyze env mapped)))
        in
        (case.Milo_designs.Suite.case_name, D.num_comps mapped, t))
      cases
  in
  (* (b) one-off proving cost into a fresh cache, then the verdicts *)
  let cache = Milo_absint.Certify.create_cache () in
  let rules = Milo_critic.Critic.all_logic_level in
  let certs = ref [] in
  let (), prove_time =
    time (fun () ->
        certs := Milo_absint.Certify.certify_rules ~cache target rules)
  in
  let certs = !certs in
  let count v =
    List.length
      (List.filter
         (fun (c : Milo_absint.Certify.certificate) ->
           c.Milo_absint.Certify.cert_verdict = v)
         certs)
  in
  let n_cert = count Milo_absint.Certify.Certified in
  let n_prob = count Milo_absint.Certify.Probabilistic in
  let n_total = List.length certs in
  let certified_fraction =
    if n_total = 0 then 0.0
    else float_of_int (n_cert + n_prob) /. float_of_int n_total
  in
  (* (c) flow cost: guard off, Full without certificates, Full with.
     The warm-up also fills the shared certificate cache, so the
     certified runs measure the amortized (cached) path. *)
  let run_flow ~guard ~certify () =
    List.iter
      (fun (case : Milo_designs.Suite.case) ->
        let budget = Milo_rules.Budget.make ~max_steps () in
        match
          Milo.Flow.run ~technology:Milo.Flow.Ecl
            ~constraints:case.Milo_designs.Suite.constraints ~budget ~guard
            ~certify case.Milo_designs.Suite.case_design
        with
        | Milo.Flow.Complete _ -> ()
        | Milo.Flow.Partial p ->
            Printf.printf "analyze: flow degraded at %s: %s\n"
              (Milo.Flow.stage_name p.Milo.Flow.failed_stage)
              p.Milo.Flow.failure.Milo.Flow.err_message;
            exit 1)
      cases
  in
  run_flow ~guard:Milo_guard.Guard.Off ~certify:false ();
  run_flow ~guard:Milo_guard.Guard.Full ~certify:true ();
  let off_min = min_of (run_flow ~guard:Milo_guard.Guard.Off ~certify:false) in
  let nocert_min =
    min_of (run_flow ~guard:Milo_guard.Guard.Full ~certify:false)
  in
  let cert_min =
    min_of (run_flow ~guard:Milo_guard.Guard.Full ~certify:true)
  in
  let over_nocert = nocert_min -. off_min in
  let over_cert = cert_min -. off_min in
  let ratio =
    if over_cert > 0.0 then over_nocert /. over_cert else infinity
  in
  List.iter
    (fun (n, comps, t) ->
      Printf.printf "fixpoint %-10s %4d comps  %8.3f ms\n" n comps (t *. 1e3))
    fixpoints;
  Printf.printf
    "certification: %d/%d certified, %d probabilistic (%.0f%% static) in \
     %.1f ms\n"
    n_cert n_total n_prob
    (certified_fraction *. 100.0)
    (prove_time *. 1e3);
  Printf.printf
    "designs %s, %d trials (min)\n\
     off:            %8.2f ms\n\
     full, no certs: %8.2f ms  (overhead %8.2f ms)\n\
     full, certs:    %8.2f ms  (overhead %8.2f ms, %.1fx reduction)\n%!"
    name trials (off_min *. 1e3) (nocert_min *. 1e3) (over_nocert *. 1e3)
    (cert_min *. 1e3) (over_cert *. 1e3) ratio;
  write_bench "BENCH_absint.json"
    [
      ("designs", Printf.sprintf "%S" name);
      ("trials", string_of_int trials);
      ("smoke", string_of_bool smoke_mode);
      ( "fixpoints",
        "["
        ^ String.concat ", "
            (List.map
               (fun (n, comps, t) ->
                 Printf.sprintf
                   "{\"comps\": %d, \"design\": %S, \"fixpoint_ms\": %.3f}"
                   comps n (t *. 1e3))
               fixpoints)
        ^ "]" );
      ("rules_total", string_of_int n_total);
      ("rules_certified", string_of_int n_cert);
      ("rules_probabilistic", string_of_int n_prob);
      ("certified_fraction", Printf.sprintf "%.3f" certified_fraction);
      ("prove_ms", Printf.sprintf "%.3f" (prove_time *. 1e3));
      ("off_ms", Printf.sprintf "%.3f" (off_min *. 1e3));
      ("full_nocert_ms", Printf.sprintf "%.3f" (nocert_min *. 1e3));
      ("full_cert_ms", Printf.sprintf "%.3f" (cert_min *. 1e3));
      ("overhead_nocert_ms", Printf.sprintf "%.3f" (over_nocert *. 1e3));
      ("overhead_cert_ms", Printf.sprintf "%.3f" (over_cert *. 1e3));
      ( "overhead_reduction",
        Printf.sprintf "%.2f" (if ratio = infinity then 999.0 else ratio) );
    ]

(* --- E14: bit-parallel simulation throughput --------------------------- *)

(* Packed-vs-scalar settle throughput on the mapped suite datapaths
   (design6-8: the sequential workloads where the guard's cost is
   paid), plus the end-to-end equivalence-check cost — what `milo
   verify` and the Full stage guard pay — before/after the packed
   engine.  The "before" reference re-implements the pre-packed
   one-vector-per-settle check on the scalar path; "after" is
   Guard.check as shipped.  `sim smoke` lives on runtest and asserts
   the packed engine clears a 10x throughput floor on every measured
   design: the floor is architectural (a ~63-lane engine measuring
   well above it), not a jitter-prone few-percent margin. *)

let sim_bench ~smoke_mode () =
  section
    (if smoke_mode then
       "E14 / sim smoke: bit-parallel vs scalar simulation throughput"
     else "E14 / sim: bit-parallel vs scalar simulation + verify cost");
  let lanes = Milo_sim.Simulator.lanes in
  let trials = if smoke_mode then 3 else 5 in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to trials do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  let env_mapped () =
    Milo_sim.Simulator.env_of_techs
      [ Milo_library.Ecl.get (); Milo_library.Generic.get () ]
  in
  let input_ports d =
    List.filter_map
      (fun (p, dir, _) -> if dir = T.Input then Some p else None)
      (D.ports d)
  in
  let word rng =
    Random.State.bits rng
    lor (Random.State.bits rng lsl 30)
    lor (Random.State.bits rng lsl 60)
  in
  (* Throughput: vectors/second through settle, same design, same
     stimulus discipline, stimulus pre-generated outside the timed
     region. *)
  let scalar_settles = if smoke_mode then 128 else 512 in
  let packed_settles = if smoke_mode then 64 else 256 in
  let eval_rows =
    List.map
      (fun (case : Milo_designs.Suite.case) ->
        let name = "design" ^ case.Milo_designs.Suite.case_name in
        let mapped, _ =
          Milo.Flow.human_baseline case.Milo_designs.Suite.case_design
        in
        let s = Milo_sim.Simulator.create (env_mapped ()) mapped in
        let ins = input_ports mapped in
        let rng = Random.State.make [| 0xbe9c |] in
        let scalar_vecs =
          Array.init scalar_settles (fun _ ->
              List.map (fun p -> (p, Random.State.bool rng)) ins)
        in
        let packed_vecs =
          Array.init packed_settles (fun _ ->
              List.map (fun p -> (p, word rng)) ins)
        in
        ignore (Milo_sim.Simulator.outputs s scalar_vecs.(0));
        ignore (Milo_sim.Simulator.outputs_packed s packed_vecs.(0));
        let t_scalar =
          min_of (fun () ->
              Array.iter
                (fun v -> ignore (Milo_sim.Simulator.outputs s v))
                scalar_vecs)
        in
        let t_packed =
          min_of (fun () ->
              Array.iter
                (fun w -> ignore (Milo_sim.Simulator.outputs_packed s w))
                packed_vecs)
        in
        let scalar_vps = float_of_int scalar_settles /. t_scalar in
        let packed_vps = float_of_int (packed_settles * lanes) /. t_packed in
        let speedup = packed_vps /. scalar_vps in
        Printf.printf
          "%-9s %4d comps: scalar %10.0f vec/s, packed %12.0f vec/s \
           (%5.1fx)\n%!"
          name (D.num_comps mapped) scalar_vps packed_vps speedup;
        (name, D.num_comps mapped, scalar_vps, packed_vps, speedup))
      [
        Milo_designs.Suite.design6 ();
        Milo_designs.Suite.design7 ();
        Milo_designs.Suite.design8 ();
      ]
  in
  (* Equivalence-check cost, raw vs mapped design8 (sequential
     lock-step, the expensive tier): the pre-packed one-vector scalar
     loop against Guard.check as shipped. *)
  let params =
    if smoke_mode then Milo_guard.Guard.sampled_params
    else Milo_guard.Guard.full_params
  in
  let raw = (Milo_designs.Suite.design8 ()).Milo_designs.Suite.case_design in
  let mapped, _ = Milo.Flow.human_baseline raw in
  let env_raw =
    Milo_sim.Simulator.env_of_techs [ Milo_library.Generic.get () ]
  in
  let scalar_reference_check () =
    let ins = input_ports raw in
    let rng = Random.State.make [| params.Milo_guard.Guard.seed |] in
    let clean = ref true in
    for _ = 1 to params.Milo_guard.Guard.runs do
      let s1 = Milo_sim.Simulator.create env_raw raw in
      let s2 = Milo_sim.Simulator.create (env_mapped ()) mapped in
      Milo_sim.Simulator.reset s1;
      Milo_sim.Simulator.reset s2;
      for _ = 1 to params.Milo_guard.Guard.cycles do
        let inputs = List.map (fun p -> (p, Random.State.bool rng)) ins in
        let o1 = Milo_sim.Simulator.outputs s1 inputs
        and o2 = Milo_sim.Simulator.outputs s2 inputs in
        if List.sort compare o1 <> List.sort compare o2 then clean := false;
        Milo_sim.Simulator.step s1 inputs;
        Milo_sim.Simulator.step s2 inputs
      done
    done;
    if not !clean then begin
      Printf.printf "sim bench: scalar reference check found a mismatch\n";
      exit 1
    end
  in
  let is_seq =
    Milo.Flow.seq_classifier
      [ Milo_library.Ecl.get (); Milo_library.Generic.get () ]
  in
  let packed_check () =
    match
      Milo_guard.Guard.check ~params ~is_seq env_raw raw (env_mapped ())
        mapped
    with
    | None -> ()
    | Some d ->
        Printf.printf "sim bench: guard found a mismatch: %s\n"
          (Milo_guard.Guard.describe d);
        exit 1
  in
  scalar_reference_check ();
  packed_check ();
  let before_min = min_of scalar_reference_check in
  let after_min = min_of packed_check in
  let verify_speedup = before_min /. after_min in
  Printf.printf
    "verify design8 vs mapped (%dx%d cycles): scalar %8.2f ms, packed \
     %8.2f ms (%.1fx)\n%!"
    params.Milo_guard.Guard.runs params.Milo_guard.Guard.cycles
    (before_min *. 1e3) (after_min *. 1e3) verify_speedup;
  let min_speedup =
    List.fold_left (fun acc (_, _, _, _, s) -> Float.min acc s) infinity
      eval_rows
  in
  write_bench "BENCH_sim.json"
    [
      ("lanes", string_of_int lanes);
      ("trials", string_of_int trials);
      ("smoke", string_of_bool smoke_mode);
      ( "eval",
        "[\n"
        ^ String.concat ",\n"
            (List.map
               (fun (n, comps, svps, pvps, sp) ->
                 Printf.sprintf
                   "    {\"comps\": %d, \"design\": %S, \"packed_vps\": \
                    %.0f, \"scalar_vps\": %.0f, \"speedup\": %.2f}"
                   comps n pvps svps sp)
               eval_rows)
        ^ "\n  ]" );
      ("min_eval_speedup", Printf.sprintf "%.2f" min_speedup);
      ( "verify",
        Printf.sprintf
          "{\"cycles\": %d, \"design\": \"design8\", \"packed_ms\": %.3f, \
           \"runs\": %d, \"scalar_ms\": %.3f, \"speedup\": %.2f}"
          params.Milo_guard.Guard.cycles (after_min *. 1e3)
          params.Milo_guard.Guard.runs (before_min *. 1e3) verify_speedup );
    ];
  if smoke_mode && min_speedup < 10.0 then begin
    Printf.printf "sim smoke: packed engine below the 10x floor (%.1fx)\n"
      min_speedup;
    exit 1
  end;
  if smoke_mode && after_min >= before_min +. 0.005 then begin
    Printf.printf
      "sim smoke: packed verify not faster than scalar reference (%.2f ms \
       vs %.2f ms)\n"
      (after_min *. 1e3) (before_min *. 1e3);
    exit 1
  end

(* --- E16: supervised parallel runtime ----------------------------------- *)

(* The domain-pool runtime must be observably invisible — bit-identical
   final designs and costs at [--domains 1] and [--domains n] — and
   fault-isolated: an injected task fault becomes a typed
   [Task_failed], never an escaped exception or a hang.  This bench
   measures both, plus honest wall-clock numbers, and writes
   BENCH_parallel.json.  A host without a second core cannot show real
   speedup (forced extra domains just oversubscribe the one core), so
   the smoke gate there is identity + graceful degradation: the
   unforced pooled run must carry the Degraded_to_sequential note and
   match the inline run bit-for-bit.  The speedup floor is asserted
   only on hosts with >= 4 cores, and the bench lives on its own
   @parallel_overhead alias rather than runtest so timing jitter can
   never fail the tier-1 suite. *)

module Pool = Milo_parallel.Pool

let parallel_bench ~smoke_mode () =
  section
    (if smoke_mode then
       "E16 / parallel smoke: domain-pool identity, faults, degradation"
     else "E16 / parallel: domain-pool speedup on the largest suite design");
  let host_cores = Domain.recommended_domain_count () in
  let case =
    if smoke_mode then Milo_designs.Suite.design3 ()
    else
      List.fold_left
        (fun (acc : Milo_designs.Suite.case) (c : Milo_designs.Suite.case) ->
          let m, _ =
            Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              c.Milo_designs.Suite.case_design
          in
          let ma, _ =
            Milo.Flow.human_baseline ~technology:Milo.Flow.Ecl
              acc.Milo_designs.Suite.case_design
          in
          if D.num_comps m > D.num_comps ma then c else acc)
        (Milo_designs.Suite.design1 ())
        (Milo_designs.Suite.all ())
  in
  let name = case.Milo_designs.Suite.case_name in
  let trials = if smoke_mode then 3 else 5 in
  let domains = if host_cores >= 2 then min 4 host_cores else 4 in
  let run_flow ?(force = true) ~domains () =
    match
      Milo.Flow.run ~technology:Milo.Flow.Ecl
        ~constraints:case.Milo_designs.Suite.constraints ~domains
        ~force_domains:force case.Milo_designs.Suite.case_design
    with
    | Milo.Flow.Complete res -> res
    | Milo.Flow.Partial p ->
        Printf.printf "parallel: flow degraded at %s: %s\n"
          (Milo.Flow.stage_name p.Milo.Flow.failed_stage)
          p.Milo.Flow.failure.Milo.Flow.err_message;
        exit 1
  in
  let min_of f =
    let best = ref infinity in
    for _ = 1 to trials do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  (* Identity: the inline supervised path vs a real forced pool.  The
     hash covers the full netlist structure; stats cover the cost
     triple the flow reports. *)
  let r1 = run_flow ~domains:1 () in
  let rn = run_flow ~domains () in
  let hash r = Milo_journal.Journal.design_hash r.Milo.Flow.optimized in
  let divergences = ref 0 in
  if hash r1 <> hash rn then begin
    Printf.printf "parallel: domains 1 vs %d final design hashes differ\n"
      domains;
    incr divergences
  end;
  if r1.Milo.Flow.final <> rn.Milo.Flow.final then begin
    Printf.printf "parallel: domains 1 vs %d final costs differ\n" domains;
    incr divergences
  end;
  (* Degradation: without [force_domains], pool construction on a
     single-core host must refuse and fall back inline — identical
     results, note recorded.  On a multi-core host it must NOT refuse. *)
  let ru = run_flow ~force:false ~domains () in
  let degraded = List.mem "Degraded_to_sequential" ru.Milo.Flow.notes in
  if hash ru <> hash r1 then begin
    Printf.printf "parallel: unforced run diverges from inline run\n";
    incr divergences
  end;
  (* Timing: min-of-trials wall clock, inline vs forced pool.  Honest
     numbers — on a single-core host the pool is pure overhead and the
     speedup lands below 1.0. *)
  let seq_min = min_of (fun () -> ignore (run_flow ~domains:1 ())) in
  let par_min =
    Float.max (min_of (fun () -> ignore (run_flow ~domains ()))) 1e-9
  in
  let speedup = seq_min /. par_min in
  (* Fault containment: a pooled batch where every fourth task raises.
     Each injected fault must come back as [Task_failed (Raised _)] in
     its own slot; every healthy task must return its value. *)
  let fault_tasks = 16 in
  let injected i = i mod 4 = 1 in
  let outcomes =
    let tasks =
      List.init fault_tasks (fun i () ->
          Pool.poll ();
          if injected i then failwith (Printf.sprintf "injected fault %d" i);
          i * i)
    in
    match Pool.create ~force:true ~domains () with
    | Some p ->
        let o = Pool.run p tasks in
        Pool.shutdown p;
        o
    | None -> Pool.run_inline tasks
  in
  let fault_failures = ref 0 in
  Array.iteri
    (fun i o ->
      match (o, injected i) with
      | Pool.Done v, false when v = i * i -> ()
      | Pool.Task_failed (Pool.Raised _), true -> incr fault_failures
      | _ ->
          Printf.printf "parallel: task %d misclassified (%s)\n" i
            (match o with
            | Pool.Done _ -> "Done"
            | Pool.Task_failed f -> Pool.fault_message f);
          exit 1)
    outcomes;
  let fault_rate = float_of_int !fault_failures /. float_of_int fault_tasks in
  Printf.printf
    "design %s, %d trials (min), host_cores=%d, domains=%d\n\
     inline (domains 1): %8.2f ms\n\
     pooled (domains %d): %8.2f ms  (%.2fx)\n\
     divergences: %d, unforced degraded: %b\n\
     faults: %d/%d contained (rate %.3f)\n%!"
    name trials host_cores domains (seq_min *. 1e3) domains (par_min *. 1e3)
    speedup !divergences degraded !fault_failures fault_tasks fault_rate;
  write_bench "BENCH_parallel.json"
    [
      ("design", Printf.sprintf "%S" name);
      ("smoke", string_of_bool smoke_mode);
      ("trials", string_of_int trials);
      ("domains", string_of_int domains);
      ("host_cores", string_of_int host_cores);
      ("degraded_unforced", string_of_bool degraded);
      ("seq_ms", Printf.sprintf "%.3f" (seq_min *. 1e3));
      ("par_ms", Printf.sprintf "%.3f" (par_min *. 1e3));
      ("speedup", Printf.sprintf "%.2f" speedup);
      ("divergences", string_of_int !divergences);
      ("fault_tasks", string_of_int fault_tasks);
      ("fault_failures", string_of_int !fault_failures);
      ("fault_rate", Printf.sprintf "%.3f" fault_rate);
    ];
  if !divergences > 0 then begin
    Printf.printf "parallel: %d divergence(s) between domain counts\n"
      !divergences;
    exit 1
  end;
  if !fault_failures <> fault_tasks / 4 then begin
    Printf.printf "parallel: expected %d injected faults, saw %d\n"
      (fault_tasks / 4) !fault_failures;
    exit 1
  end;
  if host_cores < 2 && not degraded then begin
    Printf.printf
      "parallel: single-core host but unforced pooled run did not degrade\n";
    exit 1
  end;
  if host_cores >= 2 && degraded then begin
    Printf.printf
      "parallel: %d-core host but unforced pooled run degraded\n" host_cores;
    exit 1
  end;
  if smoke_mode && host_cores >= 4 && speedup < 1.2 then begin
    Printf.printf
      "parallel smoke: %d-core host below the 1.2x floor (%.2fx)\n" host_cores
      speedup;
    exit 1
  end

let all () =
  fig19 ();
  abadd ();
  metarules ();
  scaling ();
  strategies ();
  microcritic ();
  estimator ();
  dagon ();
  disciplines ();
  bechamel ()

let () =
  match if Array.length Sys.argv > 1 then Some Sys.argv.(1) else None with
  | None -> all ()
  | Some "fig19" -> fig19 ()
  | Some "abadd" -> abadd ()
  | Some "metarules" -> metarules ()
  | Some "scaling" -> scaling ()
  | Some "strategies" -> strategies ()
  | Some "microcritic" -> microcritic ()
  | Some "estimator" -> estimator ()
  | Some "dagon" -> dagon ()
  | Some "disciplines" -> disciplines ()
  | Some "bechamel" -> bechamel ()
  | Some "smoke" -> smoke ()
  | Some "measure" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      measure_bench ~smoke_mode ()
  | Some "trace-overhead" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      trace_overhead ~smoke_mode ()
  | Some "guard-overhead" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      guard_overhead ~smoke_mode ()
  | Some "analyze" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      analyze_bench ~smoke_mode ()
  | Some "journal" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      journal_bench ~smoke_mode ()
  | Some "sim" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      sim_bench ~smoke_mode ()
  | Some "trajectory" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      trajectory_bench ~smoke_mode ()
  | Some "parallel" ->
      let smoke_mode =
        Array.length Sys.argv > 2 && Sys.argv.(2) = "smoke"
      in
      parallel_bench ~smoke_mode ()
  | Some other ->
      Printf.eprintf
        "unknown experiment %s \
         (fig19|abadd|metarules|scaling|strategies|microcritic|estimator|dagon|disciplines|bechamel|smoke|measure|trace-overhead|guard-overhead|analyze|journal|sim|trajectory|parallel)\n"
        other;
      exit 1

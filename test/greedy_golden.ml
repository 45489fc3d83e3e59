(* Golden commits: every application the optimizer commits, in order,
   on designs 1-8 under ECL and CMOS and on random logic at 150 and 300
   gates (ECL, half the human-baseline delay, as flowbench runs them).

   Each case runs [Flow.run] once, and then re-runs its techmap and
   optimize stages from the design the flow compiled:
   - the per-level greedy passes, level by level as
     [Logic_optimizer.map_levels] runs them, printing each committed
     application (level, rule, site description and components, gain
     as [%h]);
   - [Logic_optimizer.flat_passes] on the flat design, with a commit
     observer printing every committed batch (label, site digest, the
     measurer's delay/area/power delta as [%h], entry count).
   The re-run's flat and final designs must hash as the flow's techmap
   and optimize checkpoints do; a difference prints the flow's hash
   too, which breaks the comparison.  The comparison against
   greedy_golden.expected pins the optimizer's commit sequence bit for
   bit. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module R = Milo_rules.Rule
module Engine = Milo_rules.Engine
module Flow = Milo.Flow
module Database = Milo_compilers.Database
module Table_map = Milo_techmap.Table_map
module Level = Milo_optimizer.Logic_optimizer
module J = Milo_journal.Journal

let exec = Milo_parallel.Exec.inline ()

let ints l = String.concat "," (List.map string_of_int l)

let has_instances d =
  List.exists
    (fun (c : D.comp) -> match c.D.kind with T.Instance _ -> true | _ -> false)
    (D.comps d)

(* [Logic_optimizer.map_levels], printing each level's commits. *)
let map_levels ~session db target design =
  let tech_db = Database.create () in
  let level d =
    let ctx =
      R.make_context ~session
        ~extra_resolve:(Database.resolver tech_db [ target.Table_map.tech ])
        target.Table_map.tech target.Table_map.set d
    in
    List.iter
      (fun (a : Engine.application) ->
        let s = a.Engine.site in
        Printf.printf "level %s %s [%s] comps=%s data=%s gain=%h\n" (D.name d)
          a.Engine.rule.R.rule_name s.R.descr (ints s.R.site_comps)
          (ints s.R.site_data) a.Engine.gain)
      (Engine.greedy_pass ~exec
         ~cost:(Engine.Per_comp (Level.level_weight target tech_db))
         ctx ~cleanups:Milo_critic.Critic.cleanup Milo_critic.Critic.logic)
  in
  List.iter
    (fun name ->
      let mapped =
        Table_map.map_design ~keep_instances:true target (Database.get db name)
      in
      level mapped;
      Database.register tech_db mapped)
    (Level.instance_order db design);
  let top = ref (Table_map.map_design ~keep_instances:true target design) in
  level !top;
  while has_instances !top do
    top := Database.flatten_once tech_db !top;
    level !top
  done;
  !top

let delta (attr : D.attribution) =
  match (attr.D.at_before, attr.D.at_after) with
  | Some b, Some a ->
      Printf.sprintf "%h/%h/%h"
        (a.Milo_trace.Trace.delay -. b.Milo_trace.Trace.delay)
        (a.Milo_trace.Trace.area -. b.Milo_trace.Trace.area)
        (a.Milo_trace.Trace.power -. b.Milo_trace.Trace.power)
  | _ -> "-"

let checkpoint stage (res : Flow.result) =
  (List.find (fun (ck : Flow.checkpoint) -> ck.Flow.ck_stage = stage)
     res.Flow.checkpoints)
    .Flow.ck_design

let run_case (label, design, tech, constraints) =
  Printf.printf "case %s\n" label;
  let expanded = ref None in
  let hooks =
    {
      Flow.no_hooks with
      Flow.before_stage =
        (fun stage d -> if stage = Flow.Techmap then expanded := Some (D.copy d));
    }
  in
  match
    Flow.run ~technology:tech ~constraints ~guard:Milo_guard.Guard.Sampled
      ~domains:1 ~hooks design
  with
  | Flow.Partial p ->
      Printf.printf "flow degraded at %s\n" (Flow.stage_name p.Flow.failed_stage)
  | Flow.Complete res ->
      List.iter
        (fun (rule, descr) -> Printf.printf "micro %s [%s]\n" rule descr)
        res.Flow.micro_applications;
      let target = Flow.target_of tech in
      let session = R.new_session () in
      let flat =
        map_levels ~session res.Flow.database target (Option.get !expanded)
      in
      let same what mine flows =
        let h = J.design_hash mine in
        Printf.printf "%s %s\n" what h;
        if h <> J.design_hash flows then
          Printf.printf "flow %s %s\n" what (J.design_hash flows)
      in
      same "mapped" flat (checkpoint Flow.Techmap res);
      D.set_commit_hook flat
        (Some
           (fun label attr entries ->
             Printf.printf "flat %s site=%s delta=%s entries=%d\n"
               (Option.value label ~default:"-")
               (Option.value attr.D.at_site ~default:"-")
               (delta attr) (List.length entries)));
      ignore
        (Level.flat_passes ~exec ~session
           ~required:
             (Option.value ~default:infinity
                constraints.Milo.Constraints.required_delay)
           ~input_arrivals:constraints.Milo.Constraints.input_arrivals target
           flat);
      D.set_commit_hook flat None;
      same "design" flat res.Flow.optimized

let () =
  let suite =
    List.concat_map
      (fun tech ->
        List.map
          (fun (c : Milo_designs.Suite.case) ->
            ( c.Milo_designs.Suite.case_name ^ "/" ^ Flow.technology_name tech,
              c.Milo_designs.Suite.case_design,
              tech,
              c.Milo_designs.Suite.constraints ))
          (Milo_designs.Suite.all ()))
      [ Flow.Ecl; Flow.Cmos ]
  in
  let random =
    List.map
      (fun gates ->
        let d =
          Milo_designs.Workload.random_logic ~inputs:16 ~outputs:8 ~gates ~seed:7 ()
        in
        let human = Flow.baseline_stats ~technology:Flow.Ecl d in
        ( D.name d ^ "/ecl",
          d,
          Flow.Ecl,
          Milo.Constraints.delay (0.5 *. human.Flow.delay) ))
      [ 150; 300 ]
  in
  List.iter run_case (suite @ random)

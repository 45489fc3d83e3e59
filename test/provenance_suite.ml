(* Provenance suite — attribution tier-1 gate.

   - conservation fuzz: for every Figure 19 suite design, a flow run
     with the recorder installed yields per-stage cost attribution that
     telescopes bitwise (each kept application's [after] is exactly the
     next one's [before]) and sums to the stage's end-to-end cost
     change;
   - object lineage: committed applications tag the objects they touch
     with the committing stage/rule/step; rolled-back and miscompiled
     applications leave no tags and no steps;
   - attribution travels with its commit: an attributed commit on a
     hook-less copy records nothing, and each step carries only its own
     commit's attribution;
   - one fold, two readers: a journaled run's live recorder and
     [Trajectory.of_journal] over the journal it wrote give equal
     trajectory lines, ledgers, conservation rows and tags, and the
     offline stream conserves on its own — including a journal
     continued across a kill + resume, whose resumed recorder's ledger
     and conservation rows equal the uninterrupted run's. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
module J = Milo_journal.Journal
module P = Milo_provenance.Provenance
module Traj = Milo_provenance.Trajectory
module Flow = Milo.Flow
module Guard = Milo_guard.Guard
module Engine = Milo_rules.Engine
module Rule = Milo_rules.Rule
module Suite = Milo_designs.Suite
module Faults = Milo_faults
module Trace = Milo_trace.Trace

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let temp_journal tag =
  Filename.temp_file ("milo_prov_" ^ tag ^ "_") ".mjl"

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp")

(* --- Conservation fuzz --------------------------------------------------- *)

let near a b = abs_float (a -. b) <= 1e-9 *. (1.0 +. abs_float b)

let is_delta = function J.Delta _ -> true | _ -> false

let check_conservation name p =
  List.iter
    (fun (co : P.conservation) ->
      if co.P.co_breaks <> 0 then
        fail "%s/%s: %d telescoping break(s) across %d measured step(s)" name
          co.P.co_stage co.P.co_breaks co.P.co_measured;
      let r = co.P.co_residual in
      if
        not
          (near r.Trace.delay 0.0 && near r.Trace.area 0.0
         && near r.Trace.power 0.0)
      then
        fail "%s/%s: attribution residual %g/%g/%g (sum %g/%g/%g vs end %g/%g/%g)"
          name co.P.co_stage r.Trace.delay r.Trace.area r.Trace.power
          co.P.co_sum.Trace.delay co.P.co_sum.Trace.area
          co.P.co_sum.Trace.power co.P.co_end.Trace.delay
          co.P.co_end.Trace.area co.P.co_end.Trace.power)
    (P.conservation p)

let conservation_fuzz (case : Suite.case) =
  let name = case.Suite.case_name in
  let p = P.create () in
  match
    Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
      ~guard:Guard.Sampled ~provenance:p case.Suite.case_design
  with
  | Flow.Complete res ->
      check_conservation name p;
      let steps = List.length (List.filter is_delta (P.events p)) in
      let measured =
        List.fold_left
          (fun acc (co : P.conservation) -> acc + co.P.co_measured)
          0 (P.conservation p)
      in
      (* Every delta carries the budget used at its commit. *)
      List.iteri
        (fun step r ->
          match r with
          | J.Delta { d_budget = None; _ } ->
              fail "%s: step %d lacks a budget snapshot" name step
          | _ -> ())
        (List.filter is_delta (P.events p));
      (* Ledger applies must account for every step record. *)
      let ledger_applies =
        List.fold_left (fun acc (r : P.row) -> acc + r.P.row_applies) 0
          (P.ledger p)
      in
      if ledger_applies <> steps then
        fail "%s: ledger books %d applies for %d step records" name
          ledger_applies steps;
      (* Critical-path blame covers every hop of the final design. *)
      let env n =
        Milo_library.Technology.find
          (Flow.target_of Flow.Ecl).Milo_techmap.Table_map.tech n
      in
      (match
         Milo_timing.Sta.critical_path
           (Milo_timing.Sta.analyze
              ~input_arrivals:case.Suite.constraints.Milo.Constraints.input_arrivals
              env res.Flow.optimized)
       with
      | None -> ()
      | Some path ->
          let blamed = P.blame p path in
          if List.length blamed <> List.length path.Milo_timing.Sta.hops then
            fail "%s: blame covers %d of %d hops" name (List.length blamed)
              (List.length path.Milo_timing.Sta.hops);
          List.iter
            (fun ((_ : Milo_timing.Sta.hop), tag) ->
              match tag with
              | Some tg when tg.P.tag_stage <> "optimize" ->
                  fail "%s: final-design object tagged from stage %s" name
                    tg.P.tag_stage
              | Some _ | None -> ())
            blamed);
      Printf.printf "ok   conservation %-8s (%d steps, %d measured)\n" name
        steps measured
  | Flow.Partial p ->
      fail "%s: flow degraded at %s" name (Flow.stage_name p.Flow.failed_stage)
  | exception e -> fail "%s: flow raised %s" name (Printexc.to_string e)

(* --- Object lineage ------------------------------------------------------ *)

(* The flow's commit hook reduced to what the recorder reads: each
   commit on [d] becomes a delta record of [stage]. *)
let record_commits p d =
  D.set_commit_hook d
    (Some
       (fun label attr entries ->
         P.observe p
           (J.Delta
              {
                d_stage = "test";
                d_label = label;
                d_hash = None;
                d_entries = entries;
                d_attr = attr;
                d_budget = None;
                d_shape = None;
              })))

(* Committed entries tag objects; undone logs leave none; removal drops
   the tag. *)
let lineage_mechanics () =
  let p = P.create () in
  let d = D.create "lineage" in
  record_commits p d;
  (* A committed add tags the component and its nets. *)
  let log = D.new_log () in
  let n = D.new_net ~log d in
  let g = D.add_comp ~log d (T.Gate (T.And, 2)) in
  D.connect ~log d g "Y" n;
  D.commit ~label:"build" ~design:d log;
  (match P.comp_tag p g with
  | Some tg ->
      if tg.P.tag_stage <> "test" || tg.P.tag_label <> Some "build" then
        fail "lineage: wrong tag %s/%s" tg.P.tag_stage
          (Option.value ~default:"-" tg.P.tag_label)
  | None -> fail "lineage: committed component carries no tag");
  (match P.net_tag p n with
  | Some _ -> ()
  | None -> fail "lineage: committed net carries no tag");
  (* An undone log must leave no fingerprints (rollback immunity). *)
  let log2 = D.new_log () in
  let g2 = D.add_comp ~log:log2 d (T.Gate (T.Inv, 1)) in
  D.undo d log2;
  (match P.comp_tag p g2 with
  | None -> ()
  | Some _ -> fail "lineage: rolled-back component got a tag");
  (* A committed removal drops the tag. *)
  let log3 = D.new_log () in
  D.remove_comp ~log:log3 d g;
  D.commit ~label:"drop" ~design:d log3;
  (match P.comp_tag p g with
  | None -> ()
  | Some _ -> fail "lineage: removed component kept its tag");
  if !failures = 0 then Printf.printf "ok   lineage mechanics\n"

(* Attribution travels as an argument of the commit it describes, so
   it cannot attach to any other commit; and copies (scratch designs,
   worker forks) have no commit hook, so nothing committed on one is
   recorded. *)
let attribution_travels () =
  let p = P.create () in
  let d = D.create "real" in
  record_commits p d;
  let lib = Milo_library.Generic.get () in
  let ctx =
    Rule.make_context lib (Milo_compilers.Gate_comp.generic_set lib) d
  in
  let scratch = D.copy d in
  if D.has_commit_hook scratch then
    fail "attribution: a copy has a commit hook";
  if D.has_commit_hook (Rule.fork_context ctx).Rule.design then
    fail "attribution: a worker fork has a commit hook";
  let commit ?site design kind =
    let log = D.new_log () in
    ignore (D.add_comp ~log design kind);
    let attr = { D.no_attribution with D.at_site = site } in
    D.commit ~label:"opt" ~attr ~design log
  in
  commit ~site:"scratch" scratch (T.Gate (T.And, 2));
  if P.events p <> [] then fail "attribution: a commit on a copy was recorded";
  commit ~site:"first" d (T.Gate (T.And, 2));
  commit d (T.Gate (T.Inv, 1));
  commit ~site:"third" d (T.Gate (T.Inv, 1));
  (match P.events p with
  | [ J.Delta d1; J.Delta d2; J.Delta d3 ] ->
      if
        List.map
          (fun (a : D.attribution) -> a.D.at_site)
          [ d1.d_attr; d2.d_attr; d3.d_attr ]
        <> [ Some "first"; None; Some "third" ]
      then fail "attribution: a step carries another commit's site"
  | evs ->
      fail "attribution: expected 3 steps, got %d events" (List.length evs));
  if !failures = 0 then
    Printf.printf "ok   attribution travels with its commit\n"

(* A fully-guarded miscompiling rule rewarded by the cost function:
   nothing commits, no tags appear, and the rule is quarantined as a
   miscompile — netting to zero by construction. *)
let miscompile_nets_to_zero () =
  let p = P.create () in
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
  let before = D.copy d in
  let lib = Milo_library.Generic.get () in
  let ctx = Rule.make_context lib (Milo_compilers.Gate_comp.generic_set lib) d in
  record_commits p d;
  Engine.set_rule_guard ctx.Rule.session Guard.Full;
  let rule = Faults.polarity_rule () in
  let cost_factory (wctx : Rule.context) () =
    List.fold_left
      (fun acc (c : D.comp) ->
        acc +. (match c.D.kind with T.Macro "INV" -> 2.0 | _ -> 1.0))
      0.0 (D.comps wctx.Rule.design)
  in
  let apps =
    Engine.greedy_pass ~cost:(Engine.Measured cost_factory) ctx ~cleanups:[]
      [ rule ]
  in
  if apps <> [] then fail "netting: miscompiling rule committed";
  if not (D.equal_structure before d) then
    fail "netting: design not restored exactly";
  if P.tag_count p <> (0, 0) then begin
    let c, n = P.tag_count p in
    fail "netting: reverted work left %d comp / %d net tags" c n
  end;
  let steps = List.length (List.filter is_delta (P.events p)) in
  if steps <> 0 then fail "netting: %d step record(s) for reverted work" steps;
  (match
     List.assoc_opt rule.Rule.rule_name
       (Engine.quarantined_reasons ctx.Rule.session)
   with
  | Some Engine.Miscompiled -> ()
  | Some Engine.Raised ->
      fail "netting: rule quarantined as raised, not miscompiled"
  | None -> fail "netting: miscompiling rule not quarantined");
  check_conservation "netting" p;
  if !failures = 0 then Printf.printf "ok   miscompile nets to zero\n"

(* --- One fold, two readers ----------------------------------------------- *)

(* The live recorder saw the records its run journaled; the offline
   fold over that journal must give the same trajectory lines, ledger
   and conservation rows, and conserve on its own. *)
let same_fold what live ~journal =
  let off = Traj.of_journal journal in
  let ll = Traj.lines (P.events live) and ol = Traj.lines (P.events off) in
  if ol <> ll then begin
    fail "%s: of_journal's %d events differ from the live recorder's %d" what
      (List.length ol) (List.length ll);
    match List.find_opt (fun (a, b) -> a <> b) (List.combine ll ol) with
    | Some (a, b) -> Printf.printf "     live:    %s\n     offline: %s\n" a b
    | None | (exception Invalid_argument _) -> ()
  end;
  if P.ledger off <> P.ledger live then fail "%s: offline ledger differs" what;
  if P.conservation off <> P.conservation live then
    fail "%s: offline conservation differs" what;
  if P.tag_count off <> P.tag_count live then
    fail "%s: offline tags differ" what;
  check_conservation (what ^ " offline") off;
  off

let trajectory_one_fold (case : Suite.case) =
  let name = case.Suite.case_name in
  let path = temp_journal ("traj_" ^ name) in
  let p = P.create () in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~guard:Guard.Sampled ~journal:path ~provenance:p case.Suite.case_design
   with
  | Flow.Complete _ ->
      ignore (same_fold name p ~journal:path);
      Printf.printf "ok   trajectory %-8s live = of_journal (%d events)\n" name
        (List.length (P.events p))
  | Flow.Partial pp ->
      fail "%s: flow degraded at %s" name (Flow.stage_name pp.Flow.failed_stage)
  | exception e -> fail "%s: flow raised %s" name (Printexc.to_string e));
  cleanup path

(* Kill + resume: the resumed run continues the journal, and its
   recorder observes the committed prefix before its own records, so it
   sees the whole run — its ledger and conservation rows equal the
   uninterrupted run's.  The offline fold of the journal agrees with it,
   and the journal replays with zero divergences.  Killed late
   (mid-optimize if possible), and right after the last checkpoint. *)
let trajectory_stitched () =
  let case = List.hd (Suite.all ()) in
  let path = temp_journal "stitch" in
  let uninterrupted = P.create () in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~guard:Guard.Sampled ~provenance:uninterrupted case.Suite.case_design
   with
  | Flow.Complete _ -> ()
  | Flow.Partial _ | (exception _) -> fail "stitch: reference run failed");
  let last_checkpoint =
    List.fold_left
      (fun (i, last) r ->
        match r with J.Checkpoint _ -> (i + 1, i + 1) | _ -> (i + 1, last))
      (0, 0)
      (P.events uninterrupted)
    |> snd
  in
  let mid n =
    cleanup path;
    match
      Faults.run_journaled_killed ~technology:Flow.Ecl
        ~constraints:case.Suite.constraints ~guard:Guard.Sampled ~journal:path
        n case.Suite.case_design
    with
    | None -> true (* crashed: a resumable journal is on disk *)
    | Some _ -> false
  in
  let stitch what kill_points =
    if not (List.exists mid kill_points) then
      fail "%s: no kill point produced a crash" what
    else begin
      let p = P.create () and failed = !failures in
      match Flow.resume ~provenance:p path with
      | Flow.Complete _ ->
          if P.ledger p <> P.ledger uninterrupted then
            fail "%s: the resumed run's ledger differs from the uninterrupted \
                  run's" what;
          if P.conservation p <> P.conservation uninterrupted then
            fail "%s: the resumed run's conservation differs from the \
                  uninterrupted run's" what;
          let off = same_fold what p ~journal:path in
          (match List.rev (P.events off) with
          | J.Finish { f_outcome; _ } :: _ ->
              if f_outcome <> "complete" then
                fail "%s: stitched trajectory ends %S" what f_outcome
          | _ -> fail "%s: stitched trajectory lacks a finish record" what);
          (match Flow.replay path with
          | rep ->
              if rep.Flow.rep_divergences <> [] then
                fail "%s: replay found %d divergence(s)" what
                  (List.length rep.Flow.rep_divergences)
          | exception e ->
              fail "%s: replay raised %s" what (Printexc.to_string e));
          if !failures = failed then
            Printf.printf "ok   %s (%d events)\n" what
              (List.length (P.events off))
      | Flow.Partial pp ->
          fail "%s: resume degraded at %s" what
            (Flow.stage_name pp.Flow.failed_stage)
      | exception e -> fail "%s: resume raised %s" what (Printexc.to_string e)
    end
  in
  stitch "stitched trajectory across kill+resume" [ 12; 9; 6; 4; 3; 2 ];
  stitch "stitched trajectory killed after the last checkpoint"
    [ last_checkpoint ];
  cleanup path

let () =
  let cases = Suite.all () in
  List.iter conservation_fuzz cases;
  lineage_mechanics ();
  attribution_travels ();
  miscompile_nets_to_zero ();
  List.iter trajectory_one_fold cases;
  trajectory_stitched ();
  if !failures > 0 then begin
    Printf.printf "provenance_suite: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "provenance_suite: all clean"

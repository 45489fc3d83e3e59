(* Provenance suite — attribution tier-1 gate.

   - conservation fuzz: for every Figure 19 suite design, a flow run
     with the recorder installed yields per-stage cost attribution that
     telescopes bitwise (each kept application's [after] is exactly the
     next one's [before]) and sums to the stage's end-to-end cost
     change;
   - object lineage: committed applications tag the objects they touch
     with the committing stage/rule/step; rolled-back and miscompiled
     applications leave no tags (only debit markers);
   - pending-note hygiene: attribution detail deposited for one design
     can never attach to a commit on a different design;
   - trajectory round-trip: a journaled run's live trajectory, its
     save/load image and its offline [of_journal] reconstruction all
     cross-check against the journal with zero mismatches — including
     a journal stitched across a kill + resume. *)

module D = Milo_netlist.Design
module T = Milo_netlist.Types
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
      let steps =
        List.length
          (List.filter (function P.Step _ -> true | _ -> false) (P.events p))
      in
      let measured =
        List.fold_left
          (fun acc (co : P.conservation) -> acc + co.P.co_measured)
          0 (P.conservation p)
      in
      (* The budget probe was installed, so every step snapshots it. *)
      List.iter
        (function
          | P.Step s when s.P.st_budget = None ->
              fail "%s: step %d lacks a budget snapshot" name s.P.st_step
          | _ -> ())
        (P.events p);
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

(* Committed entries tag objects; undone logs leave none; removal drops
   the tag.  Driven directly through a commit hook wired the way the
   flow wires it. *)
let lineage_mechanics () =
  let p = P.create () in
  let d = D.create "lineage" in
  D.set_commit_hook d
    (Some (fun label entries -> P.observe_commit p ~stage:"test" ~label d entries));
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

(* Pending notes are keyed by physical design identity: detail
   deposited for one design can never attach to a commit on another
   (the engine evaluates candidates on scratch copies). *)
let pending_hygiene () =
  let p = P.create () in
  let d = D.create "real" in
  let scratch = D.create "scratch" in
  D.set_commit_hook d
    (Some (fun label entries -> P.observe_commit p ~stage:"test" ~label d entries));
  P.with_recorder p (fun () ->
      (* A stale note for the scratch design... *)
      P.pending ~design:scratch ~label:"opt" ~site:"stale" ();
      let log = D.new_log () in
      ignore (D.add_comp ~log d (T.Gate (T.And, 2)));
      D.commit ~label:"opt" ~design:d log;
      (* ...must not attach to the real design's commit. *)
      (match P.events p with
      | [ P.Step s ] ->
          if s.P.st_site <> None then
            fail "pending: stale note attached across designs"
      | evs -> fail "pending: expected 1 step, got %d events" (List.length evs));
      (* A matching note is consumed exactly once. *)
      P.pending ~design:d ~label:"opt" ~site:"fresh" ();
      let log = D.new_log () in
      ignore (D.add_comp ~log d (T.Gate (T.Inv, 1)));
      D.commit ~label:"opt" ~design:d log;
      let log = D.new_log () in
      ignore (D.add_comp ~log d (T.Gate (T.Inv, 1)));
      D.commit ~label:"opt" ~design:d log;
      match P.events p with
      | [ P.Step _; P.Step s2; P.Step s3 ] ->
          if s2.P.st_site <> Some "fresh" then
            fail "pending: matching note not consumed";
          if s3.P.st_site <> None then
            fail "pending: note consumed twice"
      | evs -> fail "pending: expected 3 steps, got %d events" (List.length evs));
  if !failures = 0 then Printf.printf "ok   pending-note hygiene\n"

(* A fully-guarded miscompiling rule rewarded by the cost function:
   nothing commits, no tags appear, and the reverted work surfaces as
   debit markers — netting to zero by construction. *)
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
  D.set_commit_hook d
    (Some (fun label entries -> P.observe_commit p ~stage:"test" ~label d entries));
  Engine.set_rule_guard ctx.Rule.session Guard.Full;
  P.with_recorder p (fun () ->
      let cost_factory (wctx : Rule.context) () =
        List.fold_left
          (fun acc (c : D.comp) ->
            acc +. (match c.D.kind with T.Macro "INV" -> 2.0 | _ -> 1.0))
          0.0 (D.comps wctx.Rule.design)
      in
      let apps =
        Engine.greedy_pass ~cost_factory ctx ~cleanups:[]
          [ Faults.polarity_rule () ]
      in
      if apps <> [] then fail "netting: miscompiling rule committed");
  if not (D.equal_structure before d) then
    fail "netting: design not restored exactly";
  if P.tag_count p <> (0, 0) then begin
    let c, n = P.tag_count p in
    fail "netting: reverted work left %d comp / %d net tags" c n
  end;
  let steps, debits =
    List.fold_left
      (fun (s, db') ev ->
        match ev with
        | P.Step _ -> (s + 1, db')
        | P.Debit de when de.P.de_kind = "miscompile" -> (s, db' + 1)
        | _ -> (s, db'))
      (0, 0) (P.events p)
  in
  if steps <> 0 then fail "netting: %d step record(s) for reverted work" steps;
  if debits = 0 then fail "netting: no miscompile debit recorded";
  check_conservation "netting" p;
  if !failures = 0 then
    Printf.printf "ok   miscompile nets to zero (%d debit(s))\n" debits

(* --- Trajectory round-trip ----------------------------------------------- *)

let crosscheck_empty what ~journal events =
  match Traj.crosscheck ~journal events with
  | [] -> ()
  | ms ->
      fail "%s: %d cross-check mismatch(es)" what (List.length ms);
      List.iter
        (fun (m : Traj.mismatch) ->
          Printf.printf "     record %d: %s\n" m.Traj.mis_index m.Traj.mis_detail)
        ms

let trajectory_roundtrip (case : Suite.case) =
  let name = case.Suite.case_name in
  let path = temp_journal ("traj_" ^ name) in
  let tfile = Filename.temp_file "milo_traj_" ".jsonl" in
  let p = P.create () in
  (match
     Flow.run ~technology:Flow.Ecl ~constraints:case.Suite.constraints
       ~guard:Guard.Sampled ~journal:path ~provenance:p case.Suite.case_design
   with
  | Flow.Complete _ ->
      (* Live events vs the journal they were recorded beside. *)
      crosscheck_empty (name ^ " live") ~journal:path (P.events p);
      (* Through the serialized form: save, load, cross-check again —
         and the loaded stream must equal the live one exactly (floats
         round-trip bit-exactly). *)
      Traj.save tfile (P.events p);
      let loaded = Traj.load tfile in
      if loaded <> P.events p then
        fail "%s: trajectory save/load not an identity" name;
      crosscheck_empty (name ^ " loaded") ~journal:path loaded;
      (* Offline reconstruction from the journal alone. *)
      let off = Traj.of_journal path in
      crosscheck_empty (name ^ " of_journal") ~journal:path (P.events off);
      Printf.printf "ok   trajectory %-8s round-trips (%d events)\n" name
        (List.length (P.events p))
  | Flow.Partial pp ->
      fail "%s: flow degraded at %s" name (Flow.stage_name pp.Flow.failed_stage)
  | exception e -> fail "%s: flow raised %s" name (Printexc.to_string e));
  cleanup path;
  if Sys.file_exists tfile then Sys.remove tfile

(* Kill + resume: the rewritten journal is one coherent stream, so its
   offline trajectory is the stitched record of the whole run and must
   cross-check (and replay) with zero divergences. *)
let trajectory_stitched () =
  let case = List.hd (Suite.all ()) in
  let path = temp_journal "stitch" in
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
  (* Kill late (mid-optimize if possible), then resume to completion
     with a fresh recorder. *)
  let killed = List.exists mid [ 12; 9; 6; 4; 3; 2 ] in
  if not killed then fail "stitch: no kill point produced a crash"
  else begin
    let p = P.create () in
    match Flow.resume ~provenance:p path with
    | Flow.Complete _ ->
        (* The resumed run's live stream mirrors the rewritten journal. *)
        crosscheck_empty "stitch live" ~journal:path (P.events p);
        (* The stitched offline trajectory covers the whole run. *)
        let off = Traj.of_journal path in
        crosscheck_empty "stitch of_journal" ~journal:path (P.events off);
        (match List.rev (P.events off) with
        | P.Finish { fin_outcome; _ } :: _ ->
            if fin_outcome <> "complete" then
              fail "stitch: stitched trajectory ends %S" fin_outcome
        | _ -> fail "stitch: stitched trajectory lacks a finish record");
        (* And the same journal replays divergence-free. *)
        (match Flow.replay path with
        | rep ->
            if rep.Flow.rep_divergences <> [] then
              fail "stitch: replay found %d divergence(s)"
                (List.length rep.Flow.rep_divergences)
        | exception e ->
            fail "stitch: replay raised %s" (Printexc.to_string e));
        Printf.printf "ok   stitched trajectory across kill+resume (%d events)\n"
          (List.length (P.events off))
    | Flow.Partial pp ->
        fail "stitch: resume degraded at %s"
          (Flow.stage_name pp.Flow.failed_stage)
    | exception e -> fail "stitch: resume raised %s" (Printexc.to_string e)
  end;
  cleanup path

let () =
  let cases = Suite.all () in
  List.iter conservation_fuzz cases;
  lineage_mechanics ();
  pending_hygiene ();
  miscompile_nets_to_zero ();
  List.iter trajectory_roundtrip cases;
  trajectory_stitched ();
  if !failures > 0 then begin
    Printf.printf "provenance_suite: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "provenance_suite: all clean"
